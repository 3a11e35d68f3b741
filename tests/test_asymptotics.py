import copy
import functools
import math
import re

import numpy as np
import pytest

import vdwlayers as v
from vdwlayers.stack import layout

from conftest import (GOLDEN_WALL_REL_TOL, c4_bracket_integral, constant_material, fig2_material,
                      golden_section_wall, material, search_wall)


WEAK_ELECTRIC = dict(wpe=0.02, wte=1.03, wpm=2.0, wtm=1.0)


# ---------------------------------------------------------------- thick coefficients

def test_mirror_coefficients(atom):
    c = v.thick_coefficients(atom, v.CONDUCTING_MIRROR)
    assert c.c4 == pytest.approx(-3.0 * atom.alpha0 / (32.0 * math.pi**2), rel=1e-14)
    assert c.c3 == pytest.approx(atom.dipole_sq_total / (48.0 * math.pi), rel=1e-14)
    assert math.isinf(c.c1)
    rep = v.thick_coefficients(atom, v.PERMEABLE_MIRROR)
    assert rep.c4 == -c.c4
    assert rep.c3 == 0.0


def test_near_mirror_c3_approaches_lennard_jones(atom):
    c = v.thick_coefficients(atom, constant_material(eps0=1e12))
    assert c.c3 == pytest.approx(atom.dipole_sq_total / (48.0 * math.pi), rel=1e-5)


@pytest.mark.parametrize("mirror", [v.CONDUCTING_MIRROR, v.PERMEABLE_MIRROR],
                         ids=["conducting", "permeable"])
@pytest.mark.parametrize("name, call", [
    ("static_summary", lambda atom, m: v.static_summary(m)),
    ("expansion_order1", lambda atom, m: v.expansion_order1("thick", atom, m, 1.0)),
    ("expansion_order2", lambda atom, m: v.expansion_order2("thick", atom, m, 1.0)),
    ("additivity_check", lambda atom, m: v.additivity_check(atom, m, 1.0)),
    ("thin_wall_height_bound", lambda atom, m: v.thin_wall_height_bound(atom, m)),
], ids=["static_summary", "expansion_order1", "expansion_order2", "additivity_check",
        "thin_wall_height_bound"])
def test_functions_of_eps_and_mu_reject_a_perfect_mirror(atom, mirror, name, call):
    # a perfect mirror has no eps(u) or mu(u): a TypeError naming the function
    with pytest.raises(TypeError, match=rf"^{name} needs a dispersive material, not a "
                                        r"perfect mirror$"):
        call(atom, mirror)


@pytest.mark.parametrize("error, message, call", [
    (TypeError, "thin-plate coefficients are undefined for a perfect mirror",
     lambda atom, m: v.plate_coefficients(atom, v.CONDUCTING_MIRROR, 1.0, thick=False)),
    (ValueError, "thin-plate coefficients need a thickness",
     lambda atom, m: v.plate_coefficients(atom, m, thick=False)),
    (ValueError, "plate_kind must be 'thick' or 'thin', got 'slab'",
     lambda atom, m: v.border_curve("slab", [2.0])),
    (ValueError, "plate_kind must be 'thick' or 'thin', got 'slab'",
     lambda atom, m: v.wall_estimate("slab", atom, m)),
    (TypeError, "wall estimates need a dispersive material",
     lambda atom, m: v.wall_estimate("thick", atom, [m, v.CONDUCTING_MIRROR])),
    (ValueError, "thin wall estimate needs a thickness",
     lambda atom, m: v.wall_estimate("thin", atom, m)),
    (ValueError, "bound needs a two-level atom and single-resonance material",
     lambda atom, m: v.thin_wall_height_bound(atom, material(wpe=0.75, wte=1.03))),
], ids=["thin-mirror", "thin-no-thickness", "border-kind", "estimate-kind", "estimate-mirror",
        "estimate-thin-no-thickness", "bound-no-magnetic-resonance"])
def test_asymptotics_boundary_raises(atom, error, message, call):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(atom, fig2_material())


def test_pure_magnetic_has_no_cubic_term(atom):
    c = v.thick_coefficients(atom, material(wpm=2.0, wtm=1.0, gm=0.001))
    assert c.c3 == 0.0
    assert c.c1 > 0.0
    assert c.c4 > 0.0  # repulsive at long range


def test_pure_electric_attracts(atom):
    c = v.thick_coefficients(atom, material(wpe=0.75, wte=1.03, ge=0.001))
    assert c.c4 < 0.0 and c.c3 > 0.0 and c.c1 > 0.0


def test_c3_c1_against_weak_limit_closed_forms(atom):
    # lossless two-level closed forms, weak-electric regime
    m = material(**WEAK_ELECTRIC)
    c = v.thick_coefficients(atom, m)
    w10 = 1.0
    wpe, wte, wpm, wtm = 0.02, 1.03, 2.0, 1.0
    wsm = math.sqrt(wtm**2 + 0.5 * wpm**2)
    c3_closed = (wpe**2 / wte**2) * (wte / (w10 + wte)) / (96.0 * math.pi)
    c1_closed = (wpm**2 / (96.0 * math.pi)) * w10 * (2 * w10 + wsm + wtm) / (
        (w10 + wsm) * (w10 + wtm)
    )
    assert c.c3 == pytest.approx(c3_closed, rel=1e-3)
    assert c.c1 == pytest.approx(c1_closed, rel=1e-3)


def test_c4_absorption_independent(atom):
    lossless = v.thick_coefficients(atom, fig2_material(ge=0.0, gm=0.0))
    lossy = v.thick_coefficients(atom, fig2_material(ge=0.05, gm=0.05))
    assert lossy.c4 == lossless.c4  # depends on static response only


# ---------------------------------------------------------------- analytic limits

def test_weak_limit_form(atom):
    chi = 1e-3
    lim = v.thick_c4_limits(1.0 + chi, 1.0 + chi, atom.alpha0)
    expected = -(atom.alpha0 / (640.0 * math.pi**2)) * 16.0 * chi
    assert lim.weak == pytest.approx(expected, rel=1e-12)
    assert lim.weak < 0.0  # balanced response still attracts


def test_weak_limit_zero_crossing(atom):
    chi_e = 1e-4
    lim = v.thick_c4_limits(1.0 + chi_e, 1.0 + chi_e * 23.0 / 7.0, atom.alpha0)
    scale = (atom.alpha0 / (640.0 * math.pi**2)) * 23.0 * chi_e
    assert abs(lim.weak) < 1e-11 * scale


def test_strong_limit_impedance_root():
    z = v.strong_limit_impedance_root()
    assert z == pytest.approx(2.26, abs=0.01)
    assert z * z == pytest.approx(5.11, abs=0.02)


def test_weak_limit_matches_integral(atom):
    chi = 1e-4
    c = v.thick_coefficients(atom, constant_material(eps0=1 + 2 * chi, mu0=1 + chi))
    lim = v.thick_c4_limits(1 + 2 * chi, 1 + chi, atom.alpha0)
    assert c.c4 == pytest.approx(lim.weak, rel=1e-3)


def test_strong_limit_matches_integral(atom):
    c = v.thick_coefficients(atom, constant_material(eps0=4e4, mu0=1e5))
    lim = v.thick_c4_limits(4e4, 1e5, atom.alpha0)
    assert c.c4 == pytest.approx(lim.strong, rel=1e-2)


# ---------------------------------------------------------------- thin coefficients

def test_thin_vacuum_coefficients(atom):
    c = v.thin_coefficients(atom, v.VACUUM, 1.0)
    assert (c.d5, c.d4, c.d2) == (0.0, 0.0, 0.0)


def test_thin_coefficients_linear_in_thickness(atom):
    m = fig2_material()
    a = v.thin_coefficients(atom, m, 1.0)
    b = v.thin_coefficients(atom, m, 2.0)
    assert b.d5 == pytest.approx(2 * a.d5, rel=1e-12)
    assert b.d4 == pytest.approx(2 * a.d4, rel=1e-9)
    assert b.d2 == pytest.approx(2 * a.d2, rel=1e-9)


@pytest.mark.parametrize("call", [
    lambda atom, m: v.thin_coefficients(atom, m, math.inf),
    lambda atom, m: v.wall_estimate("thin", atom, m, thickness=math.inf),
], ids=["thin_coefficients", "wall_estimate"])
def test_thin_rejects_infinite_thickness(atom, call):
    with pytest.raises(ValueError, match="thickness must be finite and > 0, got inf"):
        call(atom, fig2_material())


def test_plate_coefficients_agree_with_the_two_channel_calls(atom, oned_calls):
    # C3, C1, D4 and D2 from one four-channel call, each within the tolerances
    # of the two-channel calls of thick_coefficients and thin_coefficients
    m = fig2_material()
    thick, thin = v.plate_coefficients(atom, m, 0.5)
    ref_thick, ref_thin = v.thick_coefficients(atom, m), v.thin_coefficients(atom, m, 0.5)
    assert [len(c) for c in oned_calls] == [4, 2, 2]
    assert (thick.c4, thin.d5, thin.thickness) == (ref_thick.c4, ref_thin.d5, 0.5)
    for key, ours, ref in (("c3", thick, ref_thick), ("c1", thick, ref_thick),
                           ("d4", thin, ref_thin), ("d2", thin, ref_thin)):
        assert getattr(ours, key) == pytest.approx(getattr(ref, key), rel=3e-7), key
    assert v.plate_coefficients(atom, m)[1] is None
    assert v.plate_coefficients(atom, m, 0.5, thick=False)[0] is None
    assert v.plate_coefficients(atom, v.CONDUCTING_MIRROR, 0.5) == (
        v.thick_coefficients(atom, v.CONDUCTING_MIRROR), None)


def test_plate_coefficients_of_several_materials_are_one_call(atom, oned_calls):
    # every dispersive material's four channels share one integral on the map
    # of their union, each coefficient within its and the one-material
    # call's errors; the mirror keeps its closed limits outside the call
    media = [fig2_material(5.0), v.CONDUCTING_MIRROR, material(**WEAK_ELECTRIC),
             fig2_material(10.0)]
    d = 0.01
    shared = v.plate_coefficients(atom, media, d)
    assert [len(c) for c in oned_calls] == [12]
    assert shared[1] == v.plate_coefficients(atom, v.CONDUCTING_MIRROR, d)
    scales = (1.0 / (16.0 * math.pi**2), 1.0 / (16.0 * math.pi**2),
              3.0 * d / (64.0 * math.pi**2), d / (64.0 * math.pi**2))
    dispersive = [(i, m) for i, m in enumerate(media) if not isinstance(m, v.PerfectMirror)]
    for j, (i, m) in enumerate(dispersive):
        thick, thin = shared[i]
        alone = v.plate_coefficients(atom, m, d)
        assert (thick.c4, thin.d5) == (alone[0].c4, alone[1].d5)
        for c, (key, part) in enumerate((("c3", 0), ("c1", 0), ("d4", 1), ("d2", 1))):
            err = (oned_calls[0][4 * j + c].error + oned_calls[-1][c].error) * scales[c]
            assert abs(getattr(shared[i][part], key) - getattr(alone[part], key)) <= err, key
    assert len(oned_calls) == 1 + len(dispersive)


def test_plate_coefficients_of_several_materials_return_each_failure(atom):
    # a medium whose channels cannot converge gets its RuntimeError, not
    # raised; the others in the call keep their coefficients
    spec = v.QuadratureSpec(rel_tol_inner=1e-14, rel_tol_outer=1e-14, max_subdivisions=1)
    magnetic = material(wpm=2.0, wtm=1.0, gm=0.001)
    vacuum = material()
    out = v.plate_coefficients(atom, [vacuum, magnetic, v.CONDUCTING_MIRROR], 1.0, spec)
    assert out[0] == v.plate_coefficients(atom, vacuum, 1.0, spec)
    assert isinstance(out[1], RuntimeError)
    assert "quadrature for short-distance 1/z coefficient did not converge" in str(out[1])
    assert out[2] == (v.thick_coefficients(atom, v.CONDUCTING_MIRROR), None)
    estimates = v.wall_estimate("thick", atom, [magnetic, fig2_material(5.0)])
    assert isinstance(estimates[0], v.NoWallError)
    assert estimates[1] == v.wall_estimate("thick", atom, fig2_material(5.0))


@pytest.mark.parametrize("call, what", [
    (lambda atom, m, spec: v.thick_coefficients(atom, m, spec), "short-distance 1/z coefficient"),
    (lambda atom, m, spec: v.thin_coefficients(atom, m, 1.0, spec), "thin 1/z^2 coefficient"),
    (lambda atom, m, spec: v.plate_coefficients(atom, m, 1.0, spec),
     "short-distance 1/z coefficient"),
], ids=["thick", "thin", "plate"])
def test_nonconverged_coefficient_channel_is_named(atom, call, what):
    # no electric response: the C3 and D4 channels are zero and converge, the
    # magnetic channels cannot meet 1e-14 in one split
    spec = v.QuadratureSpec(rel_tol_inner=1e-14, rel_tol_outer=1e-14, max_subdivisions=1)
    with pytest.raises(RuntimeError, match=f"quadrature for {re.escape(what)} did not converge"):
        call(atom, material(wpm=2.0, wtm=1.0, gm=0.001), spec)


def test_thin_border_closed_form_zero_locus(atom):
    for eps0 in (1.0, 1.5, 4.0, 30.0):
        mu0 = v.thin_border_mu(eps0)
        c = v.thin_coefficients(atom, constant_material(eps0=eps0, mu0=mu0), 1.0)
        scale = abs(
            v.thin_coefficients(atom, constant_material(eps0=eps0, mu0=2 * mu0), 1.0).d5
        )
        assert abs(c.d5) < 1e-8 * max(scale, 1e-30)


def test_thin_border_endpoints():
    assert v.thin_border_mu(1.0) == pytest.approx(1.0, rel=1e-13)
    assert v.thin_border_mu(1e3) / 1e3 == pytest.approx(7.0 / 3.0, rel=5e-3)


@pytest.mark.parametrize("eps0", [1e100, 1e200])
def test_thin_border_at_huge_eps0_is_seven_thirds(eps0):
    # no power of eps0 may overflow: mu0 ~ 7/3 eps0 is far inside the float range
    assert v.thin_border_mu(eps0) / eps0 == pytest.approx(7.0 / 3.0, rel=1e-15)


def test_d4_d2_against_weak_limit_closed_forms(atom):
    m = material(**WEAK_ELECTRIC)
    d = 1.0
    c = v.thin_coefficients(atom, m, d)
    w10 = 1.0
    wpe, wte, wpm, wtm = 0.02, 1.03, 2.0, 1.0
    wlm = math.sqrt(wtm**2 + wpm**2)
    d4_closed = d * (wpe**2 / wte**2) * (wte / (w10 + wte)) / (32.0 * math.pi)
    d2_closed = (d * wpm**2 / (96.0 * math.pi)) * w10 * (4 * w10 + 3 * wlm + wtm) / (
        2.0 * (w10 + wlm) * (w10 + wtm)
    )
    assert c.d4 == pytest.approx(d4_closed, rel=1e-3)
    assert c.d2 == pytest.approx(d2_closed, rel=1e-3)


# ---------------------------------------------------------------- border curve

def test_border_thick_at_large_eps(atom):
    (point,) = v.border_curve("thick", [100.0])
    assert point.mu0 is not None
    assert point.mu0 / point.eps0 == pytest.approx(5.11, abs=0.02)


def test_border_weak_limit_slope():
    chi_e = 1e-4
    (thick_pt,) = v.border_curve("thick", [1.0 + chi_e])
    assert (thick_pt.mu0 - 1.0) / chi_e == pytest.approx(23.0 / 7.0, rel=5e-3)
    thin_mu = v.thin_border_mu(1.0 + chi_e)
    assert (thin_mu - 1.0) / chi_e == pytest.approx(23.0 / 7.0, rel=5e-3)


def test_border_thin_passes_through_vacuum_point():
    (point,) = v.border_curve("thin", [1.0])
    assert point.mu0 == pytest.approx(1.0, abs=1e-12)


def test_border_thick_monotone(atom):
    points = v.border_curve("thick", [1.5, 3.0, 10.0])
    mus = [p.mu0 for p in points]
    assert all(m is not None for m in mus)
    assert mus[0] < mus[1] < mus[2]


def brentq_border(eps0, spec=None, mu_ceiling=1e6):
    """The thick border point by the lockstep oracle and brentq, one point at a time."""
    from scipy.optimize import brentq

    def f(mu0):
        return float(c4_bracket_integral([eps0], [mu0], spec)[0])

    if abs(f(1.0)) < 1e-13:
        return 1.0
    hi = 10.0 * max(eps0, 10.0)
    f_hi = f(hi)
    while f_hi > 0.0 and hi < mu_ceiling:
        hi *= 10.0
        f_hi = f(hi)
    if f_hi > 0.0:
        return None
    return float(brentq(f, 1.0, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps))


BORDER_EPS = np.geomspace(1.0, 1000.0, 40).tolist() + [1.0001, 1.0]


def test_border_thick_matches_brentq_oracle():
    points = v.border_curve("thick", BORDER_EPS)
    assert [p.eps0 for p in points] == BORDER_EPS
    for p in points:
        ref = brentq_border(p.eps0)
        assert p.mu0 is not None and p.method == "root-find"
        assert p.mu0 == pytest.approx(ref, rel=1e-12, abs=0.0), p.eps0


def test_border_thick_batch_equals_pointwise():
    eps = BORDER_EPS[::3] + BORDER_EPS[-2:]
    batch = v.border_curve("thick", eps)
    single = [v.border_curve("thick", [e])[0] for e in eps]
    assert batch == single


@pytest.mark.parametrize("kind", ["thick", "thin"])
def test_border_edge_lists(kind):
    assert v.border_curve(kind, []) == []
    (point,) = v.border_curve(kind, [1.0])
    assert point.mu0 == pytest.approx(1.0, abs=1e-12)
    if kind == "thick":
        assert point.mu0 == 1.0


def test_border_rounds_are_batches(monkeypatch):
    """Each bracket end is one batch over every point, each root step one over the open ones."""
    calls = []

    def fake(eps0, mu0):  # root at mu0 = eps0^2, inside [eps0, 6 eps0] for eps0 in [1, 6]
        eps0, mu0 = np.asarray(eps0), np.asarray(mu0)
        calls.append((eps0.tolist(), mu0.tolist()))
        return eps0 * eps0 - mu0

    monkeypatch.setattr(v.asymptotics, "_c4_bracket", fake)
    points = v.border_curve("thick", [2.0, 1.0, 3.0])
    assert calls[:2] == [([2.0, 1.0, 3.0], [2.0, 1.0, 3.0]), ([2.0, 1.0, 3.0], [12.0, 6.0, 18.0])]
    steps = [len(e) for e, _ in calls[2:]]  # eps0 = 1 closes at its bracket end mu0 = 1
    assert steps and steps[0] == 2 and steps == sorted(steps, reverse=True)
    assert all(1.0 not in e for e, _ in calls[2:])
    assert points[1].mu0 == 1.0
    assert points[0].mu0 == pytest.approx(4.0, rel=1e-12)
    assert points[2].mu0 == pytest.approx(9.0, rel=1e-12)


def test_border_bracket_changes_sign_on_every_eps0():
    """B(eps0, eps0) >= 0 > B(eps0, 6 eps0), and 6 is above the strong-limit root z0^2."""
    ratio = v.asymptotics._BORDER_RATIO
    assert ratio == 6.0
    assert v.strong_limit_impedance_root() ** 2 < ratio <= v.asymptotics._CLOSED_RATIO
    eps = np.geomspace(1.0, 1e150, 2001)
    assert np.all(v.asymptotics._c4_bracket(eps, eps) >= 0.0)
    assert np.all(v.asymptotics._c4_bracket(eps, ratio * eps) < 0.0)
    mu = np.array([p.mu0 for p in v.border_curve("thick", eps)])
    assert np.all((eps <= mu) & (mu <= ratio * eps))


def test_border_leaves_the_rule_to_small_a(monkeypatch):
    """On 560 log points of eps0 in [1, 1000] the rule sees only rows with eps0 mu0 - 1 < 0.05."""
    seen = []
    rule = v.asymptotics._c4_bracket_rule

    def spy(eps0, mu0, a):
        seen.append(a.copy())
        return rule(eps0, mu0, a)

    monkeypatch.setattr(v.asymptotics, "_c4_bracket_rule", spy)
    v.border_curve("thick", np.geomspace(1.0, 1000.0, 560))
    a = np.concatenate(seen)
    assert 0 < a.size < 50
    assert np.all(a < v.asymptotics._CLOSED_A[0])


def test_border_failed_root_search_names_its_point(monkeypatch):
    def no_sign_change(eps0, mu0):
        return -np.ones_like(np.asarray(mu0, dtype=float))

    monkeypatch.setattr(v.asymptotics, "_c4_bracket", no_sign_change)
    with pytest.raises(RuntimeError, match=r"eps0=2\.5"):
        v.border_curve("thick", [2.5])


@pytest.mark.parametrize("kind", ["thick", "thin"])
@pytest.mark.parametrize("eps, valid, name", [  # each bad list follows a valid eps0
    ([2.0, math.nan], 1e6, "eps0"),
    ([math.inf], 1e6, "eps0"),
    ([-math.inf, 2.0], 1e6, "eps0"),
    ([0.5], 1e6, "eps0"),
])
def test_border_rejects_bad_input_before_integrating(monkeypatch, kind, eps, valid, name):
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the input was validated")

    monkeypatch.setattr(v.asymptotics, "_c4_bracket", no_integral)
    with pytest.raises(ValueError, match=name):
        v.border_curve(kind, [valid, *eps])


def test_border_root_search_at_its_step_cap_names_its_point(monkeypatch):
    monkeypatch.setattr(v.asymptotics, "_ROOT_MAX_STEPS", 3)
    with pytest.raises(RuntimeError, match=r"eps0=2\.0 did not converge in 3 steps"):
        v.border_curve("thick", [1.0, 2.0])


@pytest.mark.parametrize("eps0", [0.0, 0.5, -1.0, math.nan, math.inf])
def test_thin_border_mu_takes_border_curves_eps0(eps0):
    with pytest.raises(ValueError, match=rf"^eps0 must be finite and >= 1, got {eps0}$"):
        v.thin_border_mu(eps0)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 2.0, 1.0), "eps0"), ((0.0, 2.0, 1.0), "eps0"), ((0.5, 2.0, 1.0), "eps0"),
    ((math.inf, 2.0, 1.0), "eps0"), ((2.0, 0.0, 1.0), "mu0"), ((2.0, math.nan, 1.0), "mu0"),
    ((2.0, 2.0, math.nan), "alpha0"), ((2.0, 2.0, math.inf), "alpha0"),
])
def test_thick_c4_limits_rejects_bad_statics(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        v.thick_c4_limits(*args)


def test_c4_matches_scalar_integral(atom):
    for eps0, mu0 in [(1.5, 1.2), (3.0, 5.0), (20.0, 40.0)]:
        m = constant_material(eps0, mu0)
        c4 = v.thick_coefficients(atom, m).c4
        s = v.static_summary(m)
        ref = -(3.0 * atom.alpha0 / (64.0 * math.pi**2)) * c4_bracket_integral([s.eps0], [s.mu0])[0]
        assert c4 == pytest.approx(ref, rel=1e-13, abs=0.0)


# (eps0, mu0) on both sides of each bound of the closed form's domain
# (0.05 <= eps0 mu0 - 1 <= 1e8, ratio of the two responses <= 8)
SWITCH_POINTS = [(1.0, 1.05), (1.05, 1.0), (1.024, 1.025), (1.03, 1.02), (1.0, 8.0), (8.0, 1.0),
                 (1.0, 8.1), (8.1, 1.0), (3e3, 2.4e4), (2.4e4, 3e3), (3.5e3, 2.8e4),
                 (1e4, 1e4), (1.5, 5.0), (300.0, 1500.0)]


@pytest.mark.parametrize("eps0, mu0", SWITCH_POINTS)
def test_c4_bracket_closed_form_and_rule_agree_at_the_switch(eps0, mu0):
    e, m = np.array([eps0]), np.array([mu0])
    a = (e - 1.0) + (m - 1.0) + (e - 1.0) * (m - 1.0)
    closed = v.asymptotics._c4_bracket_closed(e, m, a)[0]
    rule = v.asymptotics._c4_bracket_rule(e, m, a)[0]
    assert abs(closed - rule) <= 1e-13
    assert v.asymptotics._c4_bracket(e, m)[0] in (closed, rule)


def test_c4_bracket_edges_are_exact_and_finite():
    eps0 = np.array([1.0, 1.0, 1.5, 1.0, 1.0, 1.0 + 1e-15, 1e3])
    mu0 = np.array([1.0, 1.5, 1.0, 1e6, 1.0 + 1e-15, 1.0, 1e6])
    value = v.asymptotics._c4_bracket(eps0, mu0)  # RuntimeWarnings are errors here
    assert value[0] == 0.0
    assert np.isfinite(value).all()
    assert np.all(np.sign(value[1:]) == [-1, 1, -1, -1, 1, -1])
    ref = c4_bracket_integral(eps0[1:], mu0[1:])
    assert value[1:] == pytest.approx(ref, rel=1e-10, abs=1e-14)
    (point,) = v.border_curve("thick", [1.0])
    assert point.mu0 == 1.0
    with pytest.raises(ValueError, match=r"overflows at eps0=1e\+160, mu0=1e\+160"):
        v.asymptotics._c4_bracket([2.0, 1e160], [2.0, 1e160])


# ---------------------------------------------------------------- monotonicity

def test_c4_static_monotonicity(atom):
    h = 1e-4
    for eps0, mu0 in [(1.5, 1.2), (3.0, 5.0), (20.0, 40.0)]:
        up = v.thick_coefficients(atom, constant_material(eps0 + h, mu0)).c4
        dn = v.thick_coefficients(atom, constant_material(eps0 - h, mu0)).c4
        assert up < dn  # dC4/deps0 < 0
        up = v.thick_coefficients(atom, constant_material(eps0, mu0 + h)).c4
        dn = v.thick_coefficients(atom, constant_material(eps0, mu0 - h)).c4
        assert up > dn  # dC4/dmu0 > 0


def test_d5_static_monotonicity(atom):
    h = 1e-4
    for eps0, mu0 in [(1.5, 1.2), (3.0, 5.0), (20.0, 40.0)]:
        up = v.thin_coefficients(atom, constant_material(eps0 + h, mu0), 1.0).d5
        dn = v.thin_coefficients(atom, constant_material(eps0 - h, mu0), 1.0).d5
        assert up < dn
        up = v.thin_coefficients(atom, constant_material(eps0, mu0 + h), 1.0).d5
        dn = v.thin_coefficients(atom, constant_material(eps0, mu0 - h), 1.0).d5
        assert up > dn


def test_absorption_derivatives_of_short_range_coefficients(atom):
    h = 1e-4
    for ge, gm in [(0.001, 0.001), (0.01, 0.02), (0.05, 0.05)]:
        c3_up = v.thick_coefficients(atom, fig2_material(ge=ge + h, gm=gm)).c3
        c3_dn = v.thick_coefficients(atom, fig2_material(ge=ge - h, gm=gm)).c3
        assert c3_up < c3_dn  # dC3/dgamma_e < 0
        c3_mup = v.thick_coefficients(atom, fig2_material(ge=ge, gm=gm + h)).c3
        c3_mdn = v.thick_coefficients(atom, fig2_material(ge=ge, gm=gm - h)).c3
        assert c3_mup == c3_mdn  # magnetic loss does not enter C3
        c1_up = v.thick_coefficients(atom, fig2_material(ge=ge + h, gm=gm)).c1
        c1_dn = v.thick_coefficients(atom, fig2_material(ge=ge - h, gm=gm)).c1
        assert c1_up < c1_dn
        c1_mup = v.thick_coefficients(atom, fig2_material(ge=ge, gm=gm + h)).c1
        c1_mdn = v.thick_coefficients(atom, fig2_material(ge=ge, gm=gm - h)).c1
        assert c1_mup < c1_mdn


# ---------------------------------------------------------------- asymptote matching

def test_thick_asymptotes_match_potential(atom):
    m = fig2_material()
    c = v.thick_coefficients(atom, m)
    gaps = []
    for z in (25.0, 50.0, 100.0):
        u = v.potential_halfspace(atom, m, z).value
        gaps.append(abs(u * z**4 / c.c4 - 1.0))
    assert gaps[-1] < 0.05
    assert gaps[0] > gaps[-1]

    electric = material(wpe=0.75, wte=1.03, ge=0.001)
    ce = v.thick_coefficients(atom, electric)
    u = v.potential_halfspace(atom, electric, 1e-3).value
    assert abs(-u * 1e-9 / ce.c3 - 1.0) < 0.05


def test_thin_asymptotes_match_potential(atom):
    m = fig2_material()
    d = 1e-6
    c = v.thin_coefficients(atom, m, d)
    z = 100.0
    u = v.potential_thin_plate(atom, m, d, z).value
    assert u * z**5 / c.d5 == pytest.approx(1.0, abs=0.05)
    z = 1e-3
    u = v.potential_thin_plate(atom, m, d, z).value
    expected = -c.d4 / z**4 + c.d2 / z**2
    assert u == pytest.approx(expected, rel=0.05)


def test_table_exponents(atom):
    # fitted log-log slopes of |U| in the extreme regimes
    def slope(f, z1, z2):
        u1, u2 = abs(f(z1)), abs(f(z2))
        return math.log(u2 / u1) / math.log(z2 / z1)

    electric = material(wpe=0.75, wte=1.03, ge=0.001)
    magnetic = material(wpm=2.0, wtm=1.0, gm=0.001)
    d = 1e-8

    thick_e = lambda z: v.potential_halfspace(atom, electric, z).value
    thick_m = lambda z: v.potential_halfspace(atom, magnetic, z).value
    thin_e = lambda z: v.potential_thin_plate(atom, electric, d, z).value
    thin_m = lambda z: v.potential_thin_plate(atom, magnetic, d, z).value

    assert slope(thick_e, 100.0, 200.0) == pytest.approx(-4.0, abs=0.05)
    assert slope(thin_e, 100.0, 200.0) == pytest.approx(-5.0, abs=0.05)
    assert slope(thick_e, 1e-3, 2e-3) == pytest.approx(-3.0, abs=0.05)
    assert slope(thick_m, 1e-3, 2e-3) == pytest.approx(-1.0, abs=0.05)
    assert slope(thin_e, 1e-3, 2e-3) == pytest.approx(-4.0, abs=0.05)
    assert slope(thin_m, 1e-3, 2e-3) == pytest.approx(-2.0, abs=0.05)


def test_long_range_absorption_insensitive(atom):
    z = 100.0
    lossless = v.potential_halfspace(atom, fig2_material(ge=0.001, gm=0.001), z).value
    lossy = v.potential_halfspace(atom, fig2_material(ge=0.05, gm=0.05), z).value
    assert lossy == pytest.approx(lossless, rel=0.01)


# ---------------------------------------------------------------- wall estimates

def test_wall_estimate_generic_vs_closed_form(atom):
    m = material(**WEAK_ELECTRIC)
    generic, closed = v.wall_estimate("thick", atom, m)
    assert generic.method == "coefficient-ratio"
    assert closed.method == "two-level-closed-form"
    assert generic.z_max == pytest.approx(closed.z_max, rel=0.02)
    assert generic.u_max == pytest.approx(closed.u_max, rel=0.02)
    assert closed.consistency < 0.1  # wall sits deep in the short-distance range

    generic_t, closed_t = v.wall_estimate("thin", atom, m, thickness=1e-5)
    assert generic_t.z_max == pytest.approx(closed_t.z_max, rel=0.02)
    assert generic_t.u_max == pytest.approx(closed_t.u_max, rel=0.02)


def test_wall_estimate_requires_electric_response(atom):
    with pytest.raises(v.NoWallError):
        v.wall_estimate("thick", atom, material(wpm=2.0, wtm=1.0))
    with pytest.raises(v.NoWallError):
        v.wall_estimate("thin", atom, material(wpm=2.0, wtm=1.0), thickness=1e-3)


def test_thin_wall_height_obeys_bound(atom):
    m = material(**WEAK_ELECTRIC)
    _, closed = v.wall_estimate("thin", atom, m, thickness=1e-5)
    bound = v.thin_wall_height_bound(atom, m)
    n0 = v.static_summary(m).n0
    assert n0 * 1e-5 / closed.z_max < 0.01  # genuinely thin
    assert closed.u_max < 0.1 * bound


# ---------------------------------------------------------------- numeric wall

def _halfspace(atom, m):
    """``pot(z, table, power)`` of a half-space of ``m``, for ``search_wall``."""
    return lambda z, table, power: v.potential_halfspace(atom, m, z, table=table, power=power)


def test_locate_wall_pure_electric_returns_none(atom):
    m = material(wpe=0.75, wte=1.03, ge=0.001)
    assert search_wall(_halfspace(atom, m), samples=24) is None


def test_locate_wall_fig2(atom):
    wall = search_wall(_halfspace(atom, fig2_material(mu0=5.0)), samples=40)
    assert wall is not None
    assert wall.u_max > 0.0
    assert 1.0 < wall.z_max < 3.0
    assert 0.0 < wall.z_err < 1e-6 * wall.z_max


def test_locate_wall_matches_short_distance_formula(atom):
    m = material(**WEAK_ELECTRIC)
    wall = search_wall(_halfspace(atom, m), samples=40)
    _, closed = v.wall_estimate("thick", atom, m)
    assert wall is not None
    assert wall.z_max == pytest.approx(closed.z_max, rel=0.15)

    d = 1e-5
    wall_thin = search_wall(lambda z, table, power: v.potential_thin_plate(
        atom, m, d, z, table=table, power=power), samples=40)
    _, closed_thin = v.wall_estimate("thin", atom, m, thickness=d)
    assert wall_thin is not None
    assert wall_thin.z_max == pytest.approx(closed_thin.z_max, rel=0.15)


@pytest.mark.parametrize("grid, message", [
    pytest.param({"z_lo": 5.0, "z_hi": 0.2}, "z_hi must exceed z_lo", id="5.0-0.2"),
    pytest.param({"z_lo": 1.0, "z_hi": 1.0}, "z_hi must exceed z_lo", id="1.0-1.0"),
    pytest.param({"z_lo": 1.0, "z_hi": math.nan}, "z_hi must be finite and > 0", id="1.0-nan"),
    pytest.param({"z_lo": 0.0}, "z_lo must be finite and > 0", id="z_lo=0"),
    pytest.param({"z_lo": -1.0}, "z_lo must be finite and > 0", id="z_lo=-1"),
    pytest.param({"z_lo": math.inf}, "z_lo must be finite and > 0", id="z_lo=inf"),
    pytest.param({"z_hi": math.inf}, "z_hi must be finite and > 0", id="z_hi=inf"),
    pytest.param({"samples": 0}, "samples must be an integer >= 4", id="samples=0"),
    pytest.param({"samples": 1}, "samples must be an integer >= 4", id="samples=1"),
    pytest.param({"samples": 3}, "samples must be an integer >= 4", id="samples=3"),
    pytest.param({"samples": 12.0}, "samples must be an integer >= 4", id="samples=12.0"),
    pytest.param({"samples": True}, "samples must be an integer >= 4", id="samples=True"),
])
def test_locate_wall_rejects_reversed_grid(grid, message):
    # a descending grid would skip the root search; a bad end or
    # sample count would end as "no wall" or as a numpy error
    def pot(z, power=0):
        raise AssertionError("no potential runs before the grid is checked")

    with pytest.raises(ValueError, match=message):  # a RuntimeWarning first fails here too
        v.locate_wall(pot, force=pot, **grid)


def _gaussian_wall(rel_error=1e-12, failing=None):
    """U = exp(-(ln z - 0.3)^2) with its exact derivatives, as ``locate_wall`` takes it.

    Returns (potential, force, calls): each potential call appends its z and
    powers to ``calls``, and after the scan the row of power ``failing`` does
    not converge.  The wall is at z = e^0.3, where U = 1 and F' = -2 e^-0.6.
    """
    calls = []

    def potential(z, power=0):
        zs = np.atleast_1d(z)
        powers = np.broadcast_to(power, zs.shape)
        calls.append((np.ndim(z), zs.tolist(), powers.tolist()))
        s = np.log(zs) - 0.3
        u = np.exp(-s * s)
        value = np.choose(powers, (u, 2.0 * s * u / zs,
                                   -2.0 * u * (1.0 - s - 2.0 * s * s) / zs**2))
        ok = (len(calls) == 1) | (powers != failing)
        batch = v.PotentialBatch(value, rel_error * u, np.full(zs.shape, 15), ok, value,
                                 np.zeros(zs.shape))
        return batch if np.ndim(z) else batch[0]

    def force(z):
        s = np.log(z) - 0.3
        return 2.0 * s * np.exp(-s * s) / z

    return potential, force, calls


def test_locate_wall_rejects_nonconverged_refinement():
    # converged on the scan, then one row of the certifying call does not
    # converge: a failure naming the root's z and the row
    samples = 12
    for power, row in enumerate(("U", "F", "F'")):
        potential, force, calls = _gaussian_wall(failing=power)
        with pytest.raises(RuntimeError, match=r"z = [0-9.]+") as exc:
            v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=samples, force=force)
        root = calls[-1][1][0]
        assert f"z = {root:.6g} in the {row} row" in str(exc.value)
        assert sum(len(zs) for _, zs, _ in calls) == samples + 3
        assert [ndim for ndim, _, _ in calls] == [1, 1]  # the scan, then the certifying call
        assert calls[1][1:] == ([root] * 3, [0, 1, 2])


def _one_channel(potential):
    """``potential`` of one wall as a one-channel ``locate_wall`` potential: the scan's
    z is 1-D, the certifying call's z and power are (1, 3) arrays."""
    def listed(z, power=0):
        return [potential(z) if np.ndim(z) == 1 else potential(z[0], power=power[0])]

    return listed


@pytest.mark.parametrize("case", ["gaussian", "fig2-mu5"])
def test_locate_wall_of_one_potential_is_its_one_channel_case(atom, case):
    # one potential and its one-channel list form give the same wall to the
    # bit, and both certifying calls receive the same z and power
    def search(as_list):
        if case == "gaussian":
            potential, force, _ = _gaussian_wall()
            grid = dict(z_lo=0.1, z_hi=10.0, samples=12)
        else:
            table, m = v.NodeTable(), fig2_material(mu0=5.0)
            potential = functools.partial(v.potential_halfspace, atom, m, table=table)
            force = functools.partial(table.sums, power=1)  # takes a (1, m) z as well
            grid = dict(samples=40)
        calls = []

        def recorded(z, power=0):
            calls.append((np.array(z), np.array(power)))
            return potential(z, power=power)

        out = v.locate_wall(_one_channel(recorded) if as_list else recorded, force=force,
                            **grid)
        return (out[0] if as_list else out), calls

    (one, one_calls), (listed, listed_calls) = search(False), search(True)
    assert one is not None and one.method == "numeric-scan"
    for field in ("z_max", "u_max", "z_err", "force"):
        assert getattr(one, field).hex() == getattr(listed, field).hex(), field
    assert len(one_calls) == len(listed_calls) == 2  # the scan, then the certifying call
    for (z, power), (z_listed, power_listed) in zip(one_calls, listed_calls):
        assert np.array_equal(z, z_listed) and np.array_equal(power, power_listed)
    assert one_calls[1][1].tolist() == [0, 1, 2]


def test_locate_wall_root_at_its_step_cap_is_that_channels_failure(monkeypatch):
    # a force root still open after _ROOT_MAX_STEPS: returned for a channel of a
    # list call, raised for one potential, and no certifying call either way
    monkeypatch.setattr(v.asymptotics, "_ROOT_MAX_STEPS", 1)
    message = r"wall search: the root of the force near z = \S+ did not converge in 1 steps"
    potential, force, calls = _gaussian_walls([0.3, -5.0])
    out = v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=12, force=force)
    assert isinstance(out[0], RuntimeError) and re.fullmatch(message, str(out[0]))
    assert out[1] is None and len(calls) == 1
    potential, force, calls = _gaussian_wall()
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=12, force=force)
    assert len(calls) == 1


@pytest.mark.parametrize("rel_error, found", [(0.2, False), (0.05, True)])
def test_locate_wall_needs_height_above_ten_errors(rel_error, found):
    potential, force, _ = _gaussian_wall(rel_error)
    wall = v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=12, force=force)
    assert (wall is not None) == found
    if found:
        assert wall.z_max == pytest.approx(math.exp(0.3), rel=1e-11)
        # (err(F) + |F|) / |F'| with err(F) = rel_error * U and F' = -2 e^-0.6 at the root
        assert wall.z_err == pytest.approx(rel_error * math.exp(0.6) / 2.0, rel=1e-6)
        assert wall.force == pytest.approx(0.0, abs=1e-12)


def test_locate_wall_needs_the_force_to_turn_from_minus_to_plus():
    # a force of the wrong sign has no root of a maximum: a failure, not "no wall"
    potential, force, calls = _gaussian_wall()
    with pytest.raises(RuntimeError, match=r"does not turn from - to \+ on z = "):
        v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=12, force=lambda z: -force(z))
    assert len(calls) == 1


def _gaussian_walls(centres, scan_fails=None, certify_fails=None):
    """``_gaussian_wall`` once per channel, its maximum at z = e^centre, as one
    several-channel potential.

    Returns (potential, force, calls): each potential call appends its 2-D
    z and powers to ``calls``; channel ``scan_fails`` converges on no scan
    point, and the certifying rows of channel ``certify_fails`` do not
    converge.
    """
    centres = np.asarray(centres, dtype=float)[:, None]
    calls = []

    def potential(z, power=0):
        zs = np.broadcast_to(z, (len(centres), np.shape(z)[-1]))
        powers = np.broadcast_to(power, zs.shape)
        calls.append((zs.tolist(), powers.tolist()))
        s = np.log(zs) - centres
        u = np.exp(-s * s)
        value = np.choose(powers, (u, 2.0 * s * u / zs,
                                   -2.0 * u * (1.0 - s - 2.0 * s * s) / zs**2))
        ok = np.ones(zs.shape, dtype=bool)
        failing = scan_fails if len(calls) == 1 else certify_fails
        if failing is not None:
            ok[failing] = False
        return [v.PotentialBatch(value[c], 1e-12 * u[c], np.full(zs.shape[1], 15), ok[c],
                                 value[c], np.zeros(zs.shape[1])) for c in range(len(centres))]

    def force(z):
        s = np.log(z) - centres
        return 2.0 * s * np.exp(-s * s) / z

    return potential, force, calls


def test_locate_wall_of_several_channels_gives_each_its_outcome():
    # one scan, one certifying call for the channels with a root, and one
    # outcome per channel: a wall, None at the grid's edge, or the
    # RuntimeError that the channel alone would raise, returned
    potential, force, calls = _gaussian_walls([0.3, -5.0, 0.5, 0.1], scan_fails=3,
                                              certify_fails=2)
    with pytest.warns(UserWarning, match=r"skipping z = \S+ of channel 3: quadrature"):
        out = v.locate_wall(potential, z_lo=0.1, z_hi=10.0, samples=12, force=force)
    assert out[0].z_max == pytest.approx(math.exp(0.3), rel=1e-11)
    assert out[1] is None
    assert isinstance(out[2], RuntimeError) and re.fullmatch(
        r"wall refinement: quadrature did not converge at z = \S+ in the U row", str(out[2]))
    assert isinstance(out[3], RuntimeError) and str(out[3]) == "no scan point converged"
    assert len(calls) == 2
    (z, power) = calls[1]
    assert power == [[0, 1, 2], [0, 0, 0], [0, 1, 2], [0, 0, 0]]
    assert z[0] == [out[0].z_max] * 3 and z[1] == [0.1] * 3  # its largest sample: the edge
    alone = []
    for centre in (0.3, 0.5):
        one, one_force, _ = _gaussian_walls([centre])
        alone.append(v.locate_wall(one, z_lo=0.1, z_hi=10.0, samples=12, force=one_force))
    assert out[0].z_max == alone[0][0].z_max and out[0].z_err == alone[0][0].z_err
    assert z[2] == [alone[1][0].z_max] * 3


def _shared_search(atom, media, **grid):
    """``locate_wall`` over the half-spaces of ``media`` as channels of one table, as
    the ``wall`` command runs its series.  Returns the outcomes, the table as the scan
    left it, and per potential call (z, power, results)."""
    table = v.NodeTable()
    calls = []

    def potential(z, power=0):
        zs = np.broadcast_to(z, (len(media), np.shape(z)[-1]))
        stacks = [v.LayerStack(*layout("halfspace", m), zc) for m, zc in zip(media, zs)]
        if len(calls) == 1:
            calls.append(copy.deepcopy(table))
        res = v.potential_multilayer(stacks, atom, table=table, power=power)
        calls.append((zs.copy(), np.broadcast_to(power, zs.shape).copy(), res))
        return res

    walls = v.locate_wall(potential, force=functools.partial(table.sums, power=1), **grid)
    scanned = calls.pop(1) if len(calls) > 1 else table
    return walls, scanned, calls


WALL_SCAN_PLATES = (1.0, 2.0, 5.0, 10.0)  # scripts/wall_scan.py's mu(0)


def test_shared_wall_search_agrees_with_each_material_alone(atom):
    # each material's wall lies within its z_err of its own search's, and
    # the heights agree within their errors
    grid = dict(z_lo=0.05, z_hi=50.0, samples=12)
    media = [fig2_material(mu0) for mu0 in WALL_SCAN_PLATES]
    walls, _, calls = _shared_search(atom, media, **grid)
    assert [w is None for w in walls] == [True, True, False, False]
    for c, (m, wall) in enumerate(zip(media, walls)):
        alone, alone_calls = _recorded_search(atom, m, **grid)
        if wall is None:
            assert alone is None
            continue
        assert abs(wall.z_max - alone.z_max) <= wall.z_err
        height, alone_height = calls[-1][2][c][0], alone_calls[-1][3][0]
        assert abs(wall.u_max - alone.u_max) <= height.error + alone_height.error


def test_shared_wall_search_certifies_no_wall_channels_for_free(atom):
    # the mu(0) = 1 and 2 plates have no wall: their rows of the certifying
    # call are p = 0 rows at a scanned z, which the scan's nodes serve, so
    # the call costs nothing more than its wall rows.  Rows at z_lo with
    # p = 0, 1, 2 instead would cost kernel points on the same table.
    grid = dict(z_lo=0.05, z_hi=50.0, samples=12)
    media = [fig2_material(mu0) for mu0 in WALL_SCAN_PLATES]
    walls, scanned, (scan, (z, power, certified)) = _shared_search(atom, media, **grid)
    zs = scan[0][0]
    for c in (0, 1):
        assert walls[c] is None
        assert power[c].tolist() == [0, 0, 0] and z[c, 0] in zs
    assert sum(r.evaluations for r in certified) == 0
    z[:2], power[:2] = grid["z_lo"], np.arange(3)
    stacks = [v.LayerStack(*layout("halfspace", m), zc) for m, zc in zip(media, z)]
    rows = v.potential_multilayer(stacks, atom, table=scanned, power=power)
    assert sum(r.evaluations for r in rows) > 0


WALL_CASES = {  # each takes an optional NodeTable and a power
    "fig2-mu5": lambda atom, z, table=None, power=0: v.potential_halfspace(
        atom, fig2_material(mu0=5.0), z, table=table, power=power),
    "fig2-mu10": lambda atom, z, table=None, power=0: v.potential_halfspace(
        atom, fig2_material(mu0=10.0), z, table=table, power=power),
    "weak-thick": lambda atom, z, table=None, power=0: v.potential_halfspace(
        atom, material(**WEAK_ELECTRIC), z, table=table, power=power),
    "weak-thin": lambda atom, z, table=None, power=0: v.potential_thin_plate(
        atom, material(**WEAK_ELECTRIC), 1e-5, z, table=table, power=power),
}


def _recorded_search(atom, case, **grid):
    """``locate_wall`` on ``WALL_CASES[case]`` (or a half-space of the medium ``case``)
    with one kept table, and its calls.

    Returns the wall and, per potential call, (ndim of z, z, power, results).
    """
    table = v.NodeTable()
    calls = []
    pot = WALL_CASES[case] if isinstance(case, str) else (
        lambda atom, z, table, power: v.potential_halfspace(atom, case, z, table=table,
                                                            power=power))

    def potential(z, power=0):
        res = pot(atom, z, table, power)
        calls.append((np.ndim(z), np.atleast_1d(z).tolist(), power, res))
        return res
    wall = v.locate_wall(potential, force=functools.partial(table.sums, power=1), **grid)
    return wall, calls


@pytest.mark.parametrize("case", sorted(WALL_CASES))
def test_locate_wall_matches_golden_section_oracle(atom, case):
    # the force's root lies within its z_err of the golden-section maximum,
    # whose bracket is GOLDEN_WALL_REL_TOL wide, and the heights agree within
    # their errors
    wall, calls = _recorded_search(atom, case, samples=40)
    seen_ref = {}

    def serial(z):
        res = WALL_CASES[case](atom, z)
        for zi, r in zip(np.atleast_1d(z).tolist(), res if np.ndim(z) else [res]):
            seen_ref[zi] = r
        return res

    ref = golden_section_wall(serial, samples=40)
    assert wall is not None and ref is not None
    assert abs(wall.z_max - ref.z_max) <= wall.z_err + GOLDEN_WALL_REL_TOL * ref.z_max
    height = calls[-1][3][0]
    assert abs(wall.u_max - ref.u_max) <= height.error + seen_ref[ref.z_max].error


@pytest.mark.parametrize("case", sorted(WALL_CASES))
def test_locate_wall_rounds_are_array_calls(atom, case):
    # after the scan, one array call at the root for the U, F and F' rows
    wall, calls = _recorded_search(atom, case, samples=40)
    assert wall is not None
    assert [ndim for ndim, *_ in calls] == [1, 1]
    _, zs, power, (height, force, curvature) = calls[1]
    assert zs == [wall.z_max] * 3 and np.asarray(power).tolist() == [0, 1, 2]
    assert (height.value, force.value) == (wall.u_max, wall.force)
    assert wall.z_err == (force.error + abs(force.value)) / abs(curvature.value)
    assert curvature.value < 0.0  # a maximum of U
    again, _ = _recorded_search(atom, case, samples=40)
    assert np.array([wall.z_max, wall.u_max, wall.z_err]).tobytes() == \
        np.array([again.z_max, again.u_max, again.z_err]).tobytes()


def test_locate_wall_monotone_magnetic_returns_none(atom):
    # no electric response: U is repulsive and falls monotonically, so the
    # largest scan value sits at the grid's first point and is no wall
    m = v.MaterialModel(electric=[], magnetic=[v.Resonance(2.0, 1.0, 0.001)])
    ndims = []

    def pot(z, table, power):
        ndims.append(np.ndim(z))
        return v.potential_halfspace(atom, m, z, table=table, power=power)
    assert search_wall(pot, samples=40) is None
    assert ndims == [1]
    with pytest.raises(v.NoWallError):
        v.wall_estimate("thick", atom, m)


def test_locate_wall_grid_above_the_wall_returns_none(atom):
    # the fig2 wall is near z = 1.79; on [3, 50] U only falls
    ndims = []

    def pot(z, table, power):
        ndims.append(np.ndim(z))
        return v.potential_halfspace(atom, fig2_material(mu0=5.0), z, table=table, power=power)
    assert search_wall(pot, z_lo=3.0, z_hi=50.0, samples=40) is None
    assert ndims == [1]


@pytest.mark.parametrize("case", sorted(WALL_CASES))
def test_locate_wall_rounds_reuse_the_scan_table(atom, case):
    # G(b) does not depend on z, so the scan's table serves the certifying
    # call: it costs less than the same call on no table, and its rows agree
    # with that call's within their errors
    wall, calls = _recorded_search(atom, case, samples=40)
    assert wall is not None
    points = [sum(r.evaluations for r in res) for *_, res in calls]
    scan = WALL_CASES[case](atom, np.geomspace(1e-3, 1e2, 40))
    free = WALL_CASES[case](atom, np.full(3, wall.z_max), power=np.arange(3))
    assert points[0] == sum(r.evaluations for r in scan)
    assert points[1] < sum(r.evaluations for r in free)
    for kept, alone in zip(calls[1][3], free):
        assert kept.converged and alone.converged
        assert abs(kept.value - alone.value) <= kept.error + alone.error


@pytest.mark.parametrize("mu0", [5.0, 10.0])
def test_locate_wall_rounds_are_free_on_the_fig2_table(atom, mu0):
    # on the grid of the benchmark's wall step the scan's nodes already meet
    # the tolerances of the U, F and F' rows at the root: the certifying
    # call computes no kernel point, and the height is the table-free one
    case = f"fig2-mu{mu0:g}"
    wall, calls = _recorded_search(atom, case, z_lo=0.2, z_hi=5.0, samples=12)
    points = [sum(r.evaluations for r in res) for *_, res in calls]
    assert points[0] > 0 and points[1:] == [0]
    ref = WALL_CASES[case](atom, wall.z_max)
    assert abs(wall.u_max - ref.value) <= calls[1][3][0].error + ref.error
    assert 0.0 < wall.z_err < 1e-6 * wall.z_max


@pytest.mark.parametrize("case", sorted(WALL_CASES))
def test_force_row_at_the_wall_costs_no_more_than_the_potential_row(atom, case):
    # F vanishes at the wall.  On the scan's table, the F row there alone
    # converges on no more new kernel points than the U row there alone: a
    # force row that scaled its tolerance on |F| would refine without end
    wall, _ = _recorded_search(atom, case, samples=40)
    scan = v.NodeTable()
    WALL_CASES[case](atom, np.geomspace(1e-3, 1e2, 40), scan)
    rows = [WALL_CASES[case](atom, wall.z_max, copy.deepcopy(scan), power) for power in (0, 1)]
    assert all(r.converged for r in rows)
    assert rows[1].evaluations <= rows[0].evaluations
    assert abs(rows[1].value) <= rows[1].error


def test_force_asymptotes_match_the_coefficients(atom):
    # U -> C4 / z^4 far out and -C3 / z^3 + C1 / z near: F = -dU/dz -> 4 C4 / z^5
    # and F z^4 -> -3 C3 + C1 z^2, the gaps shrinking as 1/z^2 and z^2
    m = fig2_material()
    c = v.thick_coefficients(atom, m)
    far = [v.potential_halfspace(atom, m, z, power=1) for z in (25.0, 50.0, 100.0)]
    gaps = [abs(f.value * z**5 / (4.0 * c.c4) - 1.0) for f, z in zip(far, (25.0, 50.0, 100.0))]
    assert all(f.converged for f in far)
    assert gaps[-1] < 2e-3 and gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2]
    near = [v.potential_halfspace(atom, m, z, power=1) for z in (1e-2, 1e-3, 1e-4)]
    gaps = [abs(-f.value * z**4 / (3.0 * c.c3) - 1.0) for f, z in zip(near, (1e-2, 1e-3, 1e-4))]
    assert all(f.converged for f in near)
    assert gaps[-1] < 1e-6 and gaps[0] > 50.0 * gaps[1] > 2500.0 * gaps[2]

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdwlayers as v

from conftest import constant_material, fig2_material, halfspace_stack, material


def two_plate_stack(mat, s, z):
    return v.LayerStack(
        layers=(v.Layer(mat, math.inf), v.Layer(v.VACUUM, s), v.Layer(mat, math.inf)),
        atom_layer=1,
        atom_position=z,
    )


def plate_stack(mat, d, z):
    return v.LayerStack(
        layers=(v.Layer(v.VACUUM, math.inf), v.Layer(mat, d), v.Layer(v.VACUUM, math.inf)),
        atom_layer=2,
        atom_position=z,
    )


# ---------------------------------------------------------------- wavenumber

def test_axial_wavenumber_vacuum_pythagorean():
    assert v.axial_wavenumber(v.VACUUM, 3.0, 4.0) == pytest.approx(5.0, rel=1e-14)


def test_axial_wavenumber_normal_incidence():
    # eps(i*1) * mu(i*1) == 4 by construction
    m = v.MaterialModel(electric=[v.Resonance(math.sqrt(6.0), 1.0)])
    assert m.eps(1.0) == pytest.approx(4.0, rel=1e-14)
    assert v.axial_wavenumber(m, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_axial_wavenumber_static_like_material():
    # dispersion-free medium with eps*mu = 1.53023 * 5 at u = 1
    m = constant_material(eps0=1.53023, mu0=5.0)
    b = v.axial_wavenumber(m, 1.0, 1.0)
    assert b == pytest.approx(math.sqrt(1.53023 * 5.0 + 1.0), rel=1e-9)
    assert b == pytest.approx(2.94128, abs=1e-5)


def test_axial_wavenumber_degenerate_rejected():
    with pytest.raises(ValueError):
        v.axial_wavenumber(v.VACUUM, 0.0, 0.0)


# ---------------------------------------------------------------- stack validation

def test_stack_validation():
    with pytest.raises(ValueError):  # outer layers must be semi-infinite
        v.LayerStack((v.Layer(v.VACUUM, 1.0), v.Layer(v.VACUUM, math.inf)), 1, 0.5)
    with pytest.raises(ValueError):  # atom layer must be vacuum
        halfspace_stack(v.VACUUM, 1.0).layers  # baseline ok
        v.LayerStack((v.Layer(fig2_material(), math.inf), v.Layer(fig2_material(), math.inf)), 1, 1.0)
    with pytest.raises(ValueError):  # atom inside the layer
        v.LayerStack(
            (v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, 2.0), v.Layer(v.VACUUM, math.inf)),
            1, 2.5,
        )
    with pytest.raises(ValueError):
        v.LayerStack((v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, math.inf)), 1, -1.0)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, 2.0, math.inf])
def test_stack_rejects_bad_position_entry(bad):
    layers = (v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, 2.0), v.Layer(v.VACUUM, math.inf))
    match = f"atom_position must be finite and in (0, 2.0), got atom_position[2] = {bad}"
    with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
        v.LayerStack(layers, 1, np.array([0.5, 1.0, bad, 1.5]))


def test_stack_holds_an_array_of_positions():
    layers = (v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, 2.0), v.Layer(v.VACUUM, math.inf))
    z = np.array([0.5, 1.5])
    stack = v.LayerStack(layers, 1, z)
    z[0] = 9.0  # the stack keeps its own read-only copy
    assert stack.atom_position.tolist() == [0.5, 1.5]
    assert not stack.atom_position.flags.writeable
    with pytest.raises(ValueError, match="1-D array"):
        v.LayerStack(layers, 1, np.ones((2, 2)))


# ---------------------------------------------------------------- reflection

def test_all_vacuum_reflects_nothing():
    stack = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, 2.0), v.Layer(v.VACUUM, math.inf)),
        1, 1.0,
    )
    for (u, q) in [(0.3, 0.0), (0.0, 1.0), (2.0, 3.0)]:
        r = v.reflection_coefficients(stack, u, np.hypot(u, q))
        assert r.r_s_minus == 0.0 and r.r_p_minus == 0.0
        assert r.r_s_plus == 0.0 and r.r_p_plus == 0.0
        assert r.d_s == 1.0 and r.d_p == 1.0


def test_huge_permittivity_approaches_conducting_mirror():
    stack = halfspace_stack(constant_material(eps0=1e12), 1.0)
    for (u, q) in [(0.5, 0.7), (1.0, 1.0), (3.0, 0.2)]:
        r = v.reflection_coefficients(stack, u, np.hypot(u, q))
        assert r.r_s_minus == pytest.approx(-1.0, abs=1e-5)
        assert r.r_p_minus == pytest.approx(1.0, abs=1e-5)


def test_mirror_layer_is_exact():
    stack = halfspace_stack(v.CONDUCTING_MIRROR, 1.0)
    r = v.reflection_coefficients(stack, 0.5, np.hypot(0.5, 0.7))
    assert r.r_s_minus == -1.0 and r.r_p_minus == 1.0
    stack = halfspace_stack(v.PERMEABLE_MIRROR, 1.0)
    r = v.reflection_coefficients(stack, 0.5, np.hypot(0.5, 0.7))
    assert r.r_s_minus == 1.0 and r.r_p_minus == -1.0


def test_mirror_hides_layers_behind_it():
    behind = v.LayerStack(
        (
            v.Layer(fig2_material(), math.inf),
            v.Layer(v.CONDUCTING_MIRROR, 0.5),
            v.Layer(v.VACUUM, 1.0),
            v.Layer(v.VACUUM, math.inf),
        ),
        3, 1.0,
    )
    plain = v.LayerStack(
        (
            v.Layer(v.CONDUCTING_MIRROR, math.inf),
            v.Layer(v.VACUUM, 1.0),
            v.Layer(v.VACUUM, math.inf),
        ),
        2, 1.0,
    )
    rb = v.reflection_coefficients(behind, 0.4, np.hypot(0.4, 0.9))
    rp = v.reflection_coefficients(plain, 0.4, np.hypot(0.4, 0.9))
    assert rb.r_s_minus == rp.r_s_minus
    assert rb.r_p_minus == rp.r_p_minus


def test_magnetic_reflectivity_bound():
    # r_s never exceeds (mu0 - 1)/(mu0 + 1); supremum at u -> 0, q -> inf
    m = fig2_material(mu0=5.0)
    stack = halfspace_stack(m, 1.0)
    bound_s = (5.0 - 1.0) / (5.0 + 1.0)
    eps0 = m.eps(0.0)
    bound_p = (eps0 - 1.0) / (eps0 + 1.0)
    us = np.geomspace(1e-3, 50.0, 12)
    qs = np.geomspace(1e-3, 200.0, 14)
    for u in us:
        r = v.reflection_coefficients(stack, np.full_like(qs, u), np.hypot(u, qs))
        assert np.all(r.r_s_minus <= bound_s + 1e-12)
        assert np.all(r.r_p_minus <= bound_p + 1e-12)
    # the bound is approached in the electrostatic corner
    r = v.reflection_coefficients(stack, 1e-6, np.hypot(1e-6, 1e4))
    assert r.r_s_minus == pytest.approx(bound_s, rel=1e-4)


def test_finite_plate_converges_to_halfspace():
    m = fig2_material()
    u, q = 0.6, 0.8
    half = v.reflection_coefficients(halfspace_stack(m, 1.0), u, np.hypot(u, q))
    prev_gap = None
    for d in (0.5, 2.0, 8.0, 20.0):
        plate = v.reflection_coefficients(plate_stack(m, d, 1.0), u, np.hypot(u, q))
        gap = abs(plate.r_s_minus - half.r_s_minus) + abs(plate.r_p_minus - half.r_p_minus)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-12


def test_cavity_denominators_bounded_for_identical_plates():
    stack = two_plate_stack(fig2_material(), 6.0, 2.0)
    us = np.geomspace(1e-3, 30.0, 10)
    qs = np.geomspace(1e-3, 30.0, 10)
    uu, qq = np.meshgrid(us, qs)
    r = v.reflection_coefficients(stack, uu, np.hypot(uu, qq))
    assert np.all(r.d_s > 0.0) and np.all(r.d_s <= 1.0)
    assert np.all(r.d_p > 0.0) and np.all(r.d_p <= 1.0)


def test_two_plate_denominator_matches_closed_form():
    m = fig2_material()
    s = 6.0
    stack = two_plate_stack(m, s, 2.0)
    u, q = 0.4, 0.5
    r = v.reflection_coefficients(stack, u, np.hypot(u, q))
    b = math.hypot(u, q)
    e, mu = m.eps(u), m.mu(u)
    bm = math.sqrt(u * u * (e * mu - 1.0) + b * b)
    rs = (mu * b - bm) / (mu * b + bm)
    rp = (e * b - bm) / (e * b + bm)
    assert r.d_s == pytest.approx(1.0 - rs * rs * math.exp(-2 * b * s), rel=1e-13)
    assert r.d_p == pytest.approx(1.0 - rp * rp * math.exp(-2 * b * s), rel=1e-13)


# ---------------------------------------------------------------- closed-form oracles

def fresnel_oracle(mat, u, b):
    """Textbook half-space coefficients (mu b - b_M)/(mu b + b_M), (eps b - b_M)/(eps b + b_M)."""
    e, m = mat.eps(u), mat.mu(u)
    b_m = np.sqrt(u * u * (e * m - 1.0) + b * b)
    return (m * b - b_m) / (m * b + b_m), (e * b - b_m) / (e * b + b_m)


def tanh_oracle(mat, d, u, b):
    """Textbook slab coefficients, both faces resummed through tanh(b_M d)."""
    e, m = mat.eps(u), mat.mu(u)
    bm2 = u * u * (e * m - 1.0) + b * b
    b_m = np.sqrt(bm2)
    th = np.tanh(b_m * d)
    r_s = (m * m * b * b - bm2) * th / (2.0 * m * b * b_m + (m * m * b * b + bm2) * th)
    r_p = (e * e * b * b - bm2) * th / (2.0 * e * b * b_m + (e * e * b * b + bm2) * th)
    return r_s, r_p


# Purely electric and purely magnetic media: no coefficient changes sign on the
# grid, so a relative comparison is well posed everywhere.  u <= 3 and
# u / b >= 0.1 keep the closed forms themselves accurate to ~1e-13 (their
# mu b - b_M cancellation costs about eps * b^2 / (u^2 chi)).
ORACLE_MATERIALS = [material(wpe=0.75, wte=1.03, ge=0.001), material(wpm=2.0, wtm=1.0, gm=0.001)]
U_GRID = np.geomspace(1e-3, 3.0, 7)[:, None]
B_GRID = U_GRID * np.array([1.01, 1.5, 4.0, 10.0])


@pytest.mark.parametrize("mat", ORACLE_MATERIALS)
def test_halfspace_reflection_matches_fresnel_form(mat):
    r = v.reflection_coefficients(halfspace_stack(mat, 1.0), U_GRID, B_GRID)
    r_s, r_p = fresnel_oracle(mat, U_GRID, B_GRID)
    assert r.r_s_minus == pytest.approx(r_s, rel=1e-12, abs=0)
    assert r.r_p_minus == pytest.approx(r_p, rel=1e-12, abs=0)


@pytest.mark.parametrize("mat", ORACLE_MATERIALS)
@pytest.mark.parametrize("d", [1e-6, 1e-2, 1.0, 100.0])
def test_plate_reflection_matches_tanh_form(mat, d):
    # b d runs from 1e-9 (d = 1e-6) to 3e3 (d = 100)
    r = v.reflection_coefficients(plate_stack(mat, d, 1.0), U_GRID, B_GRID)
    r_s, r_p = tanh_oracle(mat, d, U_GRID, B_GRID)
    assert r.r_s_minus == pytest.approx(r_s, rel=1e-12, abs=0)
    assert r.r_p_minus == pytest.approx(r_p, rel=1e-12, abs=0)


# ---------------------------------------------------------------- duality

def layer_strategy():
    res = st.builds(v.Resonance, plasma=st.floats(0.0, 5.0), transverse=st.floats(0.1, 5.0),
                    damping=st.floats(0.0, 0.5))
    return st.builds(
        v.MaterialModel,
        electric=st.lists(res, max_size=2),
        magnetic=st.lists(res, max_size=2),
    )


@given(
    m0=layer_strategy(), m1=layer_strategy(),
    d=st.floats(0.1, 5.0), u=st.floats(1e-6, 5.0), q=st.floats(1e-6, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_duality_swaps_polarizations(m0, m1, d, u, q):
    stack = v.LayerStack(
        (v.Layer(m0, math.inf), v.Layer(m1, d), v.Layer(v.VACUUM, math.inf)),
        2, 1.0,
    )
    swapped = v.duality_swap(stack)
    a = v.reflection_coefficients(stack, u, np.hypot(u, q))
    b = v.reflection_coefficients(swapped, u, np.hypot(u, q))
    assert b.r_s_minus == pytest.approx(a.r_p_minus, rel=1e-12, abs=1e-15)
    assert b.r_p_minus == pytest.approx(a.r_s_minus, rel=1e-12, abs=1e-15)


def test_duality_is_involution():
    stack = two_plate_stack(fig2_material(), 4.0, 1.0)
    assert v.duality_swap(v.duality_swap(stack)) == stack


def test_duality_swap_turns_electric_into_magnetic():
    m = material(wpe=0.75, wte=1.03)
    stack = halfspace_stack(m, 1.0)
    sw = v.duality_swap(stack)
    mat = sw.layers[0].material
    assert mat.electric == () and mat.magnetic == m.electric


# ---------------------------------------------------------------- thin-pair expansion

def _pair_correlation_exact(mat, d, s, u, q):
    full = v.LayerStack(
        (
            v.Layer(v.VACUUM, math.inf), v.Layer(mat, d), v.Layer(v.VACUUM, s),
            v.Layer(mat, d), v.Layer(v.VACUUM, math.inf),
        ),
        4, 1.0,
    )
    front = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(mat, d), v.Layer(v.VACUUM, math.inf)),
        2, 1.0,
    )
    back = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(mat, d), v.Layer(v.VACUUM, s + d),
         v.Layer(v.VACUUM, math.inf)),
        3, 1.0,
    )
    rf = v.reflection_coefficients(full, u, np.hypot(u, q))
    r1 = v.reflection_coefficients(front, u, np.hypot(u, q))
    r2 = v.reflection_coefficients(back, u, np.hypot(u, q))
    return (rf.r_s_minus - r1.r_s_minus - r2.r_s_minus,
            rf.r_p_minus - r1.r_p_minus - r2.r_p_minus)


def test_thin_pair_expansion_matches_recursion():
    u, q = 0.5, 0.7
    s = 1.0
    rel_errors = []
    for scale in (1.0, 0.5, 0.25):
        chi = 1e-2 * scale
        d = 1e-3 * scale
        mat = v.MaterialModel(
            electric=[v.Resonance(math.sqrt(chi), 1.0)],
            magnetic=[v.Resonance(math.sqrt(chi), 1.0)],
        )
        exact_s, exact_p = _pair_correlation_exact(mat, d, s, u, q)
        pair = v.thin_pair_reflection(mat, d, s, u, q)
        rel_errors.append(
            max(abs(exact_s / pair.r_s - 1.0), abs(exact_p / pair.r_p - 1.0))
        )
    assert rel_errors[0] < 5e-3
    # relative error shrinks as chi and d shrink together
    assert rel_errors[1] < rel_errors[0] / 1.7
    assert rel_errors[2] < rel_errors[1] / 1.7

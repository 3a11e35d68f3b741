import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdwlayers as v

from conftest import fig2_material, material


def test_vacuum_response_is_unity():
    eps, mu = v.VACUUM.eps(3.7), v.VACUUM.mu(3.7)
    assert eps == 1.0 and mu == 1.0


def test_static_permittivity_single_resonance():
    m = material(wpe=0.75, wte=1.03, ge=0.001)
    assert m.eps(0.0) == pytest.approx(1.0 + 0.75**2 / 1.03**2, rel=1e-14)
    assert m.eps(0.0) == pytest.approx(1.53023, abs=1e-4)


def test_static_permeability_five():
    m = material(wpm=2.0, wtm=1.0, gm=0.001)
    assert m.mu(0.0) == pytest.approx(5.0, rel=1e-14)


def test_multi_resonance_sums():
    m = v.MaterialModel(electric=[v.Resonance(1.0, 1.0), v.Resonance(1.0, 2.0)])
    assert m.eps(0.0) == pytest.approx(1.0 + 1.0 + 0.25, rel=1e-14)


def test_vectorized_eval_matches_scalar():
    m = fig2_material()
    u = np.array([0.0, 0.5, 2.0])
    eps = m.eps(u)
    assert eps.shape == u.shape
    assert eps[1] == m.eps(0.5)


def test_polarizability_two_level(atom):
    assert atom.alpha(0.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert atom.alpha(1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert atom.alpha(1e8) < 1e-15  # monotone decay to zero


def test_empty_atom_rejected():
    with pytest.raises(ValueError):
        v.AtomModel(())


def test_atom_frequency_extremes():
    a = v.AtomModel(((1.0, 1.0), (3.0, 0.5)))
    assert a.omega_min == 1.0
    assert a.omega_max == 3.0


def test_static_summary_vacuum():
    s = v.static_summary(v.VACUUM)
    assert (s.eps0, s.mu0, s.n0, s.impedance, s.chi_e0, s.chi_m0) == (1, 1, 1, 1, 0, 0)


def test_static_summary_impedance():
    m = fig2_material()
    s = v.static_summary(m)
    assert s.impedance == pytest.approx(math.sqrt(s.mu0 / s.eps0), rel=1e-14)
    assert s.impedance == pytest.approx(1.8077, abs=1e-3)
    assert s.n0 == pytest.approx(math.sqrt(s.eps0 * s.mu0), rel=1e-14)


def test_impedance_unity_when_balanced():
    m = v.MaterialModel(electric=[v.Resonance(1.0, 2.0)], magnetic=[v.Resonance(1.0, 2.0)])
    assert v.static_summary(m).impedance == 1.0


def test_resonance_validation():
    with pytest.raises(ValueError):
        v.Resonance(1.0, 0.0)
    with pytest.raises(ValueError):
        v.Resonance(-1.0, 1.0)
    with pytest.raises(ValueError):
        v.Resonance(1.0, 1.0, -0.1)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: v.Resonance(math.nan, 1.0), "plasma"),
        (lambda: v.Resonance(math.inf, 1.0), "plasma"),
        (lambda: v.Resonance(1.0, math.nan), "transverse"),
        (lambda: v.Resonance(1.0, math.inf), "transverse"),
        (lambda: v.Resonance(1.0, 1.0, math.nan), "damping"),
        (lambda: v.Resonance(1.0, 1.0, math.inf), "damping"),
        (lambda: v.Transition(math.nan, 1.0), "frequency"),
        (lambda: v.Transition(math.inf, 1.0), "frequency"),
        (lambda: v.Transition(1.0, math.nan), "dipole_sq"),
        (lambda: v.Transition(1.0, math.inf), "dipole_sq"),
        # eps, mu and alpha square these: a square past DBL_MAX is rejected
        (lambda: v.Resonance(1e200, 1.0), "plasma"),
        (lambda: v.Resonance(1.0, 1e200), "transverse"),
        (lambda: v.Transition(1e200, 1.0), "frequency"),
        # alpha(0) overflows: in frequency * dipole_sq, or in its division by an
        # underflowed frequency^2
        (lambda: v.Transition(1e10, 1e300), "dipole_sq"),
        (lambda: v.Transition(1e-200, 1.0), "frequency"),
        (lambda: v.Transition(1e-200, 0.0), "dipole_sq"),
        # each alpha(0) share is finite, their sum is not
        (lambda: v.AtomModel((v.Transition(1.0, 1e308), v.Transition(1.0, 1e308))),
         "transitions"),
    ],
)
def test_non_finite_parameters_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_material_takes_resonance_arguments():
    # an entry given as its Resonance's arguments is that Resonance
    m = v.MaterialModel(electric=[(0.75, 1.03)], magnetic=[(2.0, 1.0, 0.001)])
    assert m.electric == (v.Resonance(0.75, 1.03),)
    assert m.magnetic == (v.Resonance(2.0, 1.0, 0.001),)
    assert m.eps(0.0) == 1.0 + 0.75**2 / 1.03**2


def test_material_and_atom_take_mapping_entries():
    # an entry given as a mapping is built from its keys, as the config's are
    m = v.MaterialModel(electric=[{"plasma": 0.75, "transverse": 1.03}],
                        magnetic=[{"plasma": 2.0, "transverse": 1.0, "damping": 0.001}])
    assert m == v.MaterialModel(electric=[v.Resonance(0.75, 1.03)],
                                magnetic=[v.Resonance(2.0, 1.0, 0.001)])
    atom = v.AtomModel([{"frequency": 1.0, "dipole_sq": 1.0}])
    assert atom == v.AtomModel.two_level()


@pytest.mark.parametrize("build, cls, key", [
    (lambda: v.MaterialModel(electric=[{"plasma": 0.75, "transverse": 1.03, "gamma": 0.1}]),
     "Resonance", "gamma"),
    (lambda: v.AtomModel([{"frequency": 1.0, "dipole": 1.0}]), "Transition", "dipole"),
], ids=["resonance", "transition"])
def test_mapping_entry_with_an_unknown_key_names_its_class(build, cls, key):
    with pytest.raises(TypeError, match=f"^{cls} has no field '{key}'; its fields are "):
        build()


def test_material_rejects_a_malformed_entry():
    # checked at construction, not at the first eps call
    with pytest.raises(ValueError, match="transverse frequency must be > 0"):
        v.MaterialModel(electric=[(0.75, -1.03)])


def test_mirror_flags():
    assert v.CONDUCTING_MIRROR.r_s == -1.0 and v.CONDUCTING_MIRROR.r_p == 1.0
    assert v.PERMEABLE_MIRROR.r_s == 1.0 and v.PERMEABLE_MIRROR.r_p == -1.0
    assert v.CONDUCTING_MIRROR.swapped() == v.PERMEABLE_MIRROR
    with pytest.raises(ValueError):
        v.PerfectMirror("shiny")


def test_duality_swap_material():
    m = fig2_material()
    sw = m.swapped()
    assert sw.eps(0.7) == m.mu(0.7)
    assert sw.mu(0.7) == m.eps(0.7)
    assert sw.swapped() == m


resonances = st.builds(
    v.Resonance,
    plasma=st.floats(0.01, 50.0),
    transverse=st.floats(0.05, 50.0),
    damping=st.floats(0.0, 5.0),
)


@given(r=resonances, u1=st.floats(0.0, 100.0), u2=st.floats(0.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_susceptibility_monotone_and_above_unity(r, u1, u2):
    m = v.MaterialModel(electric=[r], magnetic=[r])
    lo, hi = sorted((u1, u2))
    assert m.eps(hi) <= m.eps(lo)
    assert m.mu(hi) <= m.mu(lo)
    assert m.eps(hi) >= 1.0 and m.mu(hi) >= 1.0


@given(r=resonances, u=st.floats(1e-3, 100.0))
@settings(max_examples=200, deadline=None)
def test_damping_lowers_response_on_imaginary_axis(r, u):
    h = 1e-4 * (1.0 + r.damping)
    up = v.MaterialModel(electric=[v.Resonance(r.plasma, r.transverse, r.damping + h)])
    down = v.MaterialModel(electric=[v.Resonance(r.plasma, r.transverse, r.damping)])
    assert up.eps(u) <= down.eps(u)


def test_damping_derivative_sign_fig2():
    # central finite difference at a representative point
    u, h = 0.7, 1e-5
    up = fig2_material(ge=0.001 + h).eps(u) - fig2_material(ge=0.001 - h).eps(u)
    assert up < 0.0
    um = fig2_material(gm=0.001 + h).mu(u) - fig2_material(gm=0.001 - h).mu(u)
    assert um < 0.0


@given(u1=st.floats(0.0, 100.0), u2=st.floats(0.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_polarizability_strictly_decreasing(u1, u2):
    a = v.AtomModel(((1.0, 1.0), (2.5, 0.3)))
    lo, hi = sorted((u1, u2))
    if hi - lo > 1e-6 * (1.0 + lo):  # resolvable at double precision
        assert a.alpha(hi) < a.alpha(lo)
    assert a.alpha(hi) > 0.0


@pytest.mark.parametrize("frequency, dipole_sq, message", [
    (0.0, 1.0, "transition frequency must be > 0, got 0.0"),
    (-1.0, 1.0, "transition frequency must be > 0, got -1.0"),
    (1.0, -1.0, "dipole_sq must be >= 0, got -1.0"),
], ids=["frequency-zero", "frequency-negative", "dipole-negative"])
def test_transition_rejects_a_nonpositive_frequency_or_negative_dipole(frequency, dipole_sq,
                                                                       message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        v.Transition(frequency, dipole_sq)

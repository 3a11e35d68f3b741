import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdwlayers as v

from conftest import (assert_rows_within_errors_of_the_oracle, constant_material,
                      fig2_material, halfspace_stack, material, multilayer_scan_stack,
                      nested_oracle, oracle_mode, recorded_nested, same_batch, tight_nested)


def plate_stack(mat, d, z):
    return v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(mat, d), v.Layer(v.VACUUM, math.inf)),
        2, z,
    )


def two_plate_stack(mat, s, z):
    return v.LayerStack(
        (v.Layer(mat, math.inf), v.Layer(v.VACUUM, s), v.Layer(mat, math.inf)),
        1, z,
    )


# ---------------------------------------------------------------- mirror

def test_mirror_retarded_limit(atom):
    z = 50.0
    res = v.potential_mirror(atom, z)
    expected = -3.0 * atom.alpha0 / (32.0 * math.pi**2 * z**4)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=0.02)
    assert res.value < 0.0


def test_mirror_nonretarded_limit(atom):
    z = 1e-3
    res = v.potential_mirror(atom, z)
    expected = -atom.dipole_sq_total / (48.0 * math.pi * z**3)
    assert res.value == pytest.approx(expected, rel=0.02)


def test_permeable_mirror_is_exact_sign_flip(atom):
    for z in np.geomspace(1e-3, 1e2, 7):
        att = v.potential_mirror(atom, z, "conducting")
        rep = v.potential_mirror(atom, z, "permeable")
        assert rep.value == -att.value  # same integral, opposite sign


def test_mirror_potential_linear_in_transitions():
    # the polarizability is a sum over transitions, so the potential is too
    z = 0.7
    both = v.AtomModel(((1.0, 1.0), (2.5, 0.4)))
    one = v.AtomModel(((1.0, 1.0),))
    two = v.AtomModel(((2.5, 0.4),))
    u_both = v.potential_mirror(both, z).value
    u_sum = v.potential_mirror(one, z).value + v.potential_mirror(two, z).value
    assert u_both == pytest.approx(u_sum, rel=1e-9)


def test_mirror_argument_validation(atom):
    with pytest.raises(ValueError):
        v.potential_mirror(atom, -1.0)
    with pytest.raises(ValueError):
        v.potential_mirror(atom, 1.0, "translucent")


# ---------------------------------------------------------------- half-space

def test_vacuum_halfspace_is_zero(atom):
    res = v.potential_halfspace(atom, v.VACUUM, 1.0)
    assert res.value == 0.0
    assert res.converged


def test_halfspace_matches_brute_oracle(atom):
    # frozen value from an independent 2000x2000 trapezoid oracle (see
    # test_quadrature for the live comparison)
    res = v.potential_halfspace(atom, fig2_material(), 1.0)
    assert res.value == pytest.approx(-7.7615860385e-05, rel=1e-4)


def test_near_mirror_halfspace_converges_to_mirror(atom):
    # a huge eps(0) takes the ordinary path; its gap to the conducting mirror
    # closes as 1.25 / sqrt(eps(0)) at z = 50, down to rounding
    z = 50.0
    mirror = v.potential_mirror(atom, z)
    for eps0 in (9e7, 1e12, 1e16):
        near = v.potential_halfspace(atom, constant_material(eps0=eps0), z)
        assert near.converged
        gap = (near.value - mirror.value) / abs(mirror.value)
        assert gap * math.sqrt(eps0) == pytest.approx(1.25, rel=1e-3), eps0
    far = v.potential_halfspace(atom, constant_material(eps0=1e40), z)
    assert far.value == pytest.approx(mirror.value, rel=1e-13)


MIRROR_Z = np.geomspace(1e-3, 1e2, 11)


@pytest.mark.parametrize("kind", ["conducting", "permeable"])
@pytest.mark.parametrize("geometry", ["halfspace", "plate"])
def test_mirror_layer_rows_within_their_errors_of_the_closed_form(atom, kind, geometry):
    # a mirror is an ordinary layer on the b-node table; a plate of it reflects
    # fully at any thickness
    mirror = v.PerfectMirror(kind)
    if geometry == "halfspace":
        rows = v.potential_halfspace(atom, mirror, MIRROR_Z)
    else:
        rows = v.potential_plate(atom, mirror, 0.3, MIRROR_Z)
    for z, row, ref in zip(MIRROR_Z.tolist(), rows, v.potential_mirror(atom, MIRROR_Z, kind)):
        assert row.converged, z
        assert abs(row.value - ref.value) <= row.error, z


def test_permeable_mirror_halfspace_is_exact_sign_flip(atom):
    # acceptance criterion 3 on the table: the kernel negates point by point
    att = v.potential_halfspace(atom, v.CONDUCTING_MIRROR, MIRROR_Z)
    rep = v.potential_halfspace(atom, v.PERMEABLE_MIRROR, MIRROR_Z)
    assert [r.value for r in rep] == [-a.value for a in att]
    for z in MIRROR_Z.tolist():
        assert (v.potential_halfspace(atom, v.PERMEABLE_MIRROR, z).value
                == -v.potential_halfspace(atom, v.CONDUCTING_MIRROR, z).value), z


def test_no_jump_across_a_huge_permeability(atom):
    # mu(0) near 1e8 is an ordinary medium: no swap to the mirror above it
    below, above = (v.potential_halfspace(atom, constant_material(mu0=mu0), 1e-3)
                    for mu0 in (0.99e8, 1.01e8))
    assert below.converged and above.converged
    assert above.value == pytest.approx(below.value, rel=1e-2)


@pytest.mark.parametrize("response", [{"eps0": 1e12}, {"mu0": 1e12}, {"eps0": 1e40}])
def test_huge_response_halfspace_equals_multilayer(atom, response):
    m = constant_material(**response)
    zs = np.array([1e-3, 0.5, 50.0])
    rows = v.potential_halfspace(atom, m, zs)
    assert same_batch(rows, v.potential_multilayer(halfspace_stack(m, zs), atom))
    assert all(r.converged for r in rows)


@pytest.mark.parametrize("response", ["eps0", "mu0"])
def test_huge_response_halfspace_reaches_the_mirror(atom, response):
    # eps(0) or mu(0) = 1e150 squares past the double range in the Fresnel
    # coefficient unless it is scaled; the rows must reach the mirror exactly
    mirror = v.CONDUCTING_MIRROR if response == "eps0" else v.PERMEABLE_MIRROR
    m = constant_material(**{response: 1e150})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = v.potential_halfspace(atom, m, MIRROR_Z)
    ref = v.potential_halfspace(atom, mirror, MIRROR_Z)
    assert all(r.converged for r in rows)
    for r, a, z in zip(rows, ref, MIRROR_Z.tolist()):
        assert r.value == pytest.approx(a.value, rel=1e-13), z


@pytest.mark.parametrize("response", [{"eps0": 1e160, "mu0": 1e160},
                                      {"eps0": 1e150, "mu0": 1e150}])
def test_overflowing_response_is_flagged_not_converged(atom, response):
    # u^2 eps mu leaves the double range at small z; the rows must say so
    m = constant_material(**response)
    zs = np.geomspace(1e-3, 10.0, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = v.potential_halfspace(atom, m, zs)
        point = v.potential_halfspace(atom, m, 1e-3)
    assert not point.converged
    assert not any(r.converged for r in rows)


def test_sign_dichotomy(atom):
    electric = material(wpe=0.75, wte=1.03, ge=0.001)
    magnetic = material(wpm=2.0, wtm=1.0, gm=0.001)
    for z in np.geomspace(0.01, 100.0, 7):
        assert v.potential_halfspace(atom, electric, z).value < 0.0
        assert v.potential_halfspace(atom, magnetic, z).value > 0.0


def test_halfspace_decays_monotonically(atom):
    m = material(wpe=0.75, wte=1.03, ge=0.001)
    zs = np.geomspace(1.0, 64.0, 7)
    mags = [abs(v.potential_halfspace(atom, m, z).value) for z in zs]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_halfspace_agrees_with_multilayer(atom):
    m = fig2_material()
    z = 0.7
    direct = v.potential_halfspace(atom, m, z)
    stacked = v.potential_multilayer(halfspace_stack(m, z), atom)
    assert stacked.value == pytest.approx(direct.value, rel=1e-6)
    assert stacked.right == 0.0


# ---------------------------------------------------------------- finite plate

def test_plate_thick_limit(atom):
    m = fig2_material()
    z = 1.0
    plate = v.potential_plate(atom, m, 1000.0 * z, z)
    half = v.potential_halfspace(atom, m, z)
    assert plate.value == pytest.approx(half.value, rel=1e-3)


def test_vacuum_plate_is_zero(atom):
    assert v.potential_plate(atom, v.VACUUM, 1.0, 1.0).value == 0.0
    assert v.potential_thin_plate(atom, v.VACUUM, 0.01, 1.0).value == 0.0


def test_plate_thin_limit(atom):
    m = fig2_material()
    z = 1.0
    n0 = v.static_summary(m).n0
    d = 1e-3 * z / n0
    plate = v.potential_plate(atom, m, d, z)
    thin = v.potential_thin_plate(atom, m, d, z)
    assert plate.value == pytest.approx(thin.value, rel=5e-3)


def test_plate_linearization_error_is_first_order(atom):
    # relative gap between the finite plate and its linearization shrinks
    # linearly with the thickness
    m = fig2_material()
    z = 1.0
    gaps = []
    for d in (0.01, 0.001):
        plate = v.potential_plate(atom, m, d, z).value
        thin = v.potential_thin_plate(atom, m, d, z).value
        gaps.append(abs(plate / thin - 1.0))
    assert gaps[0] < 0.1
    assert gaps[1] / gaps[0] == pytest.approx(0.1, rel=0.5)


def test_thin_plate_is_linear_in_thickness(atom):
    m = fig2_material()
    a = v.potential_thin_plate(atom, m, 1e-4, 1.0)
    b = v.potential_thin_plate(atom, m, 2e-4, 1.0)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-9)


def test_thin_plate_regime_warning(atom):
    with pytest.warns(UserWarning, match="outside its regime"):
        v.potential_thin_plate(atom, fig2_material(), 0.5, 1.0)


def test_plate_agrees_with_multilayer(atom):
    m = fig2_material()
    d, z = 0.8, 1.3
    direct = v.potential_plate(atom, m, d, z)
    stacked = v.potential_multilayer(plate_stack(m, d, z), atom)
    assert stacked.value == pytest.approx(direct.value, rel=1e-6)


# ---------------------------------------------------------------- two plates

def test_two_plates_symmetry(atom):
    m = fig2_material()
    s = 15.0
    for z in (1.0, 4.0, 7.0):
        a = v.potential_two_plates(atom, m, s, z)
        b = v.potential_two_plates(atom, m, s, s - z)
        assert b.value == pytest.approx(a.value, rel=1e-7)
        assert b.left == pytest.approx(a.right, rel=1e-7)


def test_two_plates_far_separation_reduces_to_single(atom):
    m = fig2_material()
    two = v.potential_two_plates(atom, m, 100.0, 1.0)
    one = v.potential_halfspace(atom, m, 1.0)
    assert two.value == pytest.approx(one.value, rel=0.01)


def test_two_plates_decomposition_sums(atom):
    res = v.potential_two_plates(atom, fig2_material(), 10.0, 3.0)
    assert res.left + res.right == res.value


def test_two_plates_multiple_reflections_small_at_fig7_parameters(atom):
    m = fig2_material()
    s = 15.0
    full = v.potential_two_plates(atom, m, s, s / 2.0)
    summed = v.potential_two_plates(atom, m, s, s / 2.0, multiple_reflections=False)
    assert abs(full.value - summed.value) / abs(summed.value) < 0.01


def test_two_plates_agrees_with_multilayer(atom):
    m = fig2_material()
    s, z = 6.0, 2.0
    direct = v.potential_two_plates(atom, m, s, z)
    stacked = v.potential_multilayer(two_plate_stack(m, s, z), atom)
    assert stacked.value == pytest.approx(direct.value, rel=1e-6)
    assert stacked.left == pytest.approx(direct.left, rel=1e-6)
    assert stacked.right == pytest.approx(direct.right, rel=1e-6)


def test_two_plates_position_validation(atom):
    with pytest.raises(ValueError):
        v.potential_two_plates(atom, fig2_material(), 5.0, 5.0)
    with pytest.raises(ValueError):
        v.potential_two_plates(atom, fig2_material(), 5.0, 0.0)


# ---------------------------------------------------------------- multilayer

def test_all_vacuum_multilayer_is_zero(atom):
    stack = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(v.VACUUM, 2.0), v.Layer(v.VACUUM, math.inf)),
        1, 0.7,
    )
    res = v.potential_multilayer(stack, atom)
    assert res.value == 0.0
    assert res.converged


def test_atom_in_leftmost_layer_mirrors_geometry(atom):
    m = fig2_material()
    z = 0.9
    left_stack = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(m, math.inf)), 0, z,
    )
    res = v.potential_multilayer(left_stack, atom)
    ref = v.potential_halfspace(atom, m, z)
    assert res.value == pytest.approx(ref.value, rel=1e-6)
    assert res.left == 0.0


def test_interior_vacuum_gap_multilayer(atom):
    # atom in a vacuum gap between a mirror and a dielectric plate
    m = material(wpe=0.75, wte=1.03, ge=0.001)
    stack = v.LayerStack(
        (
            v.Layer(v.CONDUCTING_MIRROR, math.inf),
            v.Layer(v.VACUUM, 4.0),
            v.Layer(m, 1.0),
            v.Layer(v.VACUUM, math.inf),
        ),
        1, 2.0,
    )
    res = v.potential_multilayer(stack, atom)
    assert res.converged
    assert res.value < 0.0  # both walls attract
    assert res.left != 0.0 and res.right != 0.0
    assert res.left + res.right == res.value


@pytest.mark.parametrize("z", [math.inf, math.nan])
def test_halfspace_rejects_non_finite_z(atom, z):
    with pytest.raises(ValueError, match="z must be finite and > 0"):
        v.potential_halfspace(atom, fig2_material(), z)


def test_plate_rejects_infinite_thickness(atom):
    with pytest.raises(ValueError, match="thickness must be finite"):
        v.potential_plate(atom, fig2_material(), math.inf, 1.0)


# ---------------------------------------------------------------- batches over z

def bench_stack(z):
    """The benchmark's 7-layer multilayer scene; the atom sits in the 6-wide vacuum gap."""
    plate, film = fig2_material(), material(wpe=1.5, wte=1.2, ge=0.001)
    return v.LayerStack(
        (
            v.Layer(plate, math.inf), v.Layer(v.VACUUM, 0.5), v.Layer(film, 0.2),
            v.Layer(v.VACUUM, 6.0), v.Layer(film, 0.3), v.Layer(v.VACUUM, 1.0),
            v.Layer(plate, math.inf),
        ),
        3, z,
    )


# every geometry as potential(atom, z, spec); each wall's distance spans both
# regimes (nonretarded below z = 1, retarded from 1) over BATCH_Z
GEOMETRIES = {
    "halfspace": lambda atom, z, spec=None: v.potential_halfspace(atom, fig2_material(), z, spec),
    "plate": lambda atom, z, spec=None: v.potential_plate(atom, fig2_material(), 0.3, z, spec),
    "thin-plate": lambda atom, z, spec=None: v.potential_thin_plate(
        atom, fig2_material(), 1e-3, z, spec),
    "two-plates": lambda atom, z, spec=None: v.potential_two_plates(
        atom, fig2_material(), 5.0, z, spec),
    "two-plates-noreflect": lambda atom, z, spec=None: v.potential_two_plates(
        atom, fig2_material(), 5.0, z, spec, multiple_reflections=False),
    "multilayer": lambda atom, z, spec=None: v.potential_multilayer(bench_stack(z), atom, spec),
    "mirror": lambda atom, z, spec=None: v.potential_mirror(atom, z, "permeable", spec),
    "mirror-halfspace": lambda atom, z, spec=None: v.potential_halfspace(
        atom, v.CONDUCTING_MIRROR, z, spec),
}
BATCH_Z = np.array([0.05, 0.4, 0.95, 1.0, 2.5, 4.6])


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_nested_batch_matches_pointwise(atom, geometry):
    # the rows of an array share one b-node table per wall, so a row is not the
    # float call bit for bit: both lie within their reported errors of the
    # nested engine at 100x tighter tolerance, and a repeat gives the same bytes;
    # the batch's rows are its arrays' entries, by index or by iteration
    potential = GEOMETRIES[geometry]
    batch = potential(atom, BATCH_Z)
    assert isinstance(batch, v.PotentialBatch) and len(batch) == BATCH_Z.size
    assert same_batch(potential(atom, BATCH_Z), batch)
    assert np.array_equal(batch.left + batch.right, batch.values)
    assert batch.evaluations == batch.row_evaluations.sum()
    assert list(batch) == [batch[i] for i in range(BATCH_Z.size)]
    assert batch[-1] == batch[BATCH_Z.size - 1]
    for z, row in zip(BATCH_Z.tolist(), batch):
        point = potential(atom, z)
        for res in (row, point):
            assert isinstance(res, v.PotentialResult) and isinstance(res.value, float)
            assert type(res.evaluations) is int and type(res.converged) is bool
        with tight_nested(z) as tight:
            ref = potential(atom, z, tight)
        for res in (row, point):
            assert res.converged, (geometry, z)
            assert abs(res.value - ref.value) <= res.error, (geometry, z)
            assert res.left + res.right == res.value, (geometry, z)
    empty = potential(atom, np.array([]))
    assert isinstance(empty, v.PotentialBatch) and len(empty) == 0 and list(empty) == []


def test_potential_batches_pass_the_kernel_point_probe(atom, monkeypatch):
    # wrap integrate_nested and its kernel as the benchmark's traced run does:
    # count np.broadcast(u, b).size per kernel call, then evaluate
    # `points != res.evaluations` and `not res.converged` on the returned result
    from vdwlayers import potential as module

    nested = module.integrate_nested
    seen = []

    def probed(kernel, *args, **kwargs):
        points = []

        def traced(*kargs):
            points.append(int(np.broadcast(*kargs[:2]).size))
            return kernel(*kargs)

        res = nested(traced, *args, **kwargs)
        assert type(res.evaluations) is int and type(res.converged) is bool
        if sum(points) != res.evaluations:
            raise AssertionError(f"counted {sum(points)} points, reported {res.evaluations}")
        seen.append((res.evaluations, not res.converged))
        return res

    monkeypatch.setattr(module, "integrate_nested", probed)
    rows = v.potential_multilayer(bench_stack(np.array([0.5, 3.0, 5.5])), atom)
    assert len(seen) == 1  # one call: both walls' channels over all three positions
    assert sum(evals for evals, _ in seen) == sum(r.evaluations for r in rows)
    assert not any(failed for _, failed in seen)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("geometry", ["halfspace", "thin-plate", "mirror", "multilayer"])
def test_potentials_reject_bad_z_entry(atom, geometry, bad):
    z = np.array([0.5, 1.0, bad, 2.0])
    name = "atom_position" if geometry == "multilayer" else "z"
    with pytest.raises(ValueError, match=rf"{name}\[2\].* {re.escape(str(bad))}"):
        GEOMETRIES[geometry](atom, z)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, 5.0])
def test_two_plates_reject_bad_z_entry(atom, bad):
    match = f"z must be finite and in (0, 5.0), got z[2] = {bad}"
    with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
        v.potential_two_plates(atom, fig2_material(), 5.0, np.array([0.5, 1.0, bad]))


def test_thin_plate_regime_warning_once_per_batch(atom):
    m = fig2_material()
    d = 0.002
    z = np.array([0.05, 0.5, 0.02, 5.0])  # n(0) d / z = 0.11, 0.011, 0.28, 0.0011
    spec = v.QuadratureSpec(rel_tol_inner=1e-5, rel_tol_outer=1e-4)
    with pytest.warns(UserWarning, match="outside its regime at 2 of 4 z") as record:
        v.potential_thin_plate(atom, m, d, z, spec)
    assert len(record) == 1
    largest = v.static_summary(m).n0 * d / 0.02
    assert f"largest n(0) d / z = {largest:.3g} > 0.1" in str(record[0].message)


def test_thin_layer_warning_counts_the_distance_to_its_near_face(atom):
    # one thin layer on each side of an interior atom, behind vacuum spacers:
    # the left one is 0.3 + z away, the right one 0.5 + (1 - z)
    m = fig2_material()
    d = 0.025  # n(0) d = 0.0692
    stack = v.LayerStack((v.Layer(v.VACUUM, math.inf), v.Layer(m, d, thin=True),
                          v.Layer(v.VACUUM, 0.3), v.Layer(v.VACUUM, 1.0), v.Layer(v.VACUUM, 0.5),
                          v.Layer(m, d, thin=True), v.Layer(v.VACUUM, math.inf)),
                         3, np.array([0.1, 0.5, 0.9]))
    spec = v.QuadratureSpec(rel_tol_inner=1e-5, rel_tol_outer=1e-4)
    with pytest.warns(UserWarning, match="outside its regime") as record:
        v.potential_multilayer(stack, atom, spec)
    n0d = v.static_summary(m).n0 * d
    assert [str(w.message) for w in record] == [
        f"thin-plate linearization used outside its regime at {count} of 3 z: "
        f"largest n(0) d / z = {n0d / near:.3g} > 0.1"
        for count, near in ((1, 0.4), (1, 0.6))]


# ---------------------------------------------------------------- interior atoms, drawn

_RESONANCE = st.builds(v.Resonance, st.floats(0.05, 3.0), st.floats(0.2, 3.0),
                       st.floats(1e-3, 0.5))
_MEDIUM = st.builds(lambda e, m: v.MaterialModel(electric=[e], magnetic=[m]),
                    _RESONANCE, _RESONANCE)
_DISTANCE = st.floats(-3.0, 2.0).map(lambda x: 10.0**x)  # log-uniform over [1e-3, 1e2]


@st.composite
def interior_atoms(draw):
    """A 3- to 5-layer stack of single-resonance media, the atom in an interior vacuum gap."""
    layers = draw(st.integers(3, 5))
    j = draw(st.integers(1, layers - 2))
    z_left, z_right = draw(_DISTANCE), draw(_DISTANCE)
    stack = []
    for i in range(layers):
        if i == j:
            stack.append(v.Layer(v.VACUUM, z_left + z_right))
        elif i in (0, layers - 1):
            stack.append(v.Layer(draw(_MEDIUM), math.inf))
        else:
            stack.append(v.Layer(draw(_MEDIUM), draw(st.floats(0.01, 10.0))))
    return v.LayerStack(tuple(stack), j, z_left)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(interior_atoms())
def test_interior_atom_walls_within_their_errors_of_the_oracle(atom, stack):
    # both walls are channels of one table; each converged channel row lies
    # within its error of the nested oracle, run on that wall alone
    from vdwlayers import potential as module

    calls = []

    def recording(kernel, **kwargs):
        calls.append((kernel, kwargs, v.integrate_nested(kernel, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_nested", recording)
        res = v.potential_multilayer(stack, atom)
    ((kernel, kwargs, batch),) = calls
    assert kwargs["z"].shape == (2, 1)
    assert (res.left, res.right) == (batch[0][0].value, batch[1][0].value)
    assert res.value == res.left + res.right
    assert batch.row_evaluations.sum() == res.evaluations == batch.evaluations
    spec = dataclasses.replace(v.DEFAULT_SPEC, rel_tol_inner=v.DEFAULT_SPEC.rel_tol_inner / 100,
                               rel_tol_outer=v.DEFAULT_SPEC.rel_tol_outer / 100)
    for c, (z,) in enumerate(kwargs["z"].tolist()):
        row = batch[c][0]
        if not row.converged:
            continue
        ref = nested_oracle(lambda u, b: kernel(u, b)[c], z=z, spec=spec,
                            u_scale=kwargs["u_scale"], mode=oracle_mode(z))
        assert ref.converged, (c, z)
        assert abs(row.value - ref.value) <= row.error, (c, z, row, ref)


def test_multilayer_scan_rows_within_their_errors_of_the_oracle(atom):
    # the benchmark's interior-atom stack: both walls at its five positions are
    # channels of one table, whose inner floors follow each node's weight in
    # these rows; each row lies within its and the oracle's errors of the
    # oracle run on it alone
    from vdwlayers import potential as module

    with recorded_nested(module) as records:
        v.potential_multilayer(multilayer_scan_stack(), atom)
    (record,) = records
    assert np.shape(record["kwargs"]["z"]) == (2, 5)
    assert_rows_within_errors_of_the_oracle(record)


def test_multilayer_scan_kernel_counts_pinned(atom):
    # kernel calls and points do not depend on the machine: ceilings on the
    # benchmark's stack guard the table's cost
    from vdwlayers import potential as module

    with recorded_nested(module) as records:
        v.potential_multilayer(multilayer_scan_stack(), atom)
    (record,) = records
    assert record["points"] == record["batch"].evaluations
    assert (record["calls"], record["points"]) <= (3, 6645), record


@st.composite
def outer_atoms(draw):
    """A 2- to 4-layer stack of single-resonance media, the atom in an outer vacuum layer.

    Also draws the atom positions of a first call and of a later call.
    """
    layers = draw(st.integers(2, 4))
    j = draw(st.sampled_from([0, layers - 1]))
    stack = []
    for i in range(layers):
        if i == j:
            stack.append(v.Layer(v.VACUUM, math.inf))
        elif i in (0, layers - 1):
            stack.append(v.Layer(draw(_MEDIUM), math.inf))
        else:
            stack.append(v.Layer(draw(_MEDIUM), draw(st.floats(0.01, 10.0))))
    first = np.array(draw(st.lists(_DISTANCE, min_size=2, max_size=3)))
    later = np.array(draw(st.lists(_DISTANCE, min_size=1, max_size=2)))
    return tuple(stack), j, first, later


@settings(max_examples=12, deadline=None, derandomize=True)
@given(outer_atoms())
def test_outer_atom_rows_within_their_errors_of_the_oracle(atom, drawn):
    # one wall is one channel of a table; the rows of a first call, and of a
    # later call that reuses its table at fresh positions, each lie within
    # their errors of the nested oracle
    from vdwlayers import potential as module

    layers, j, first, later = drawn
    calls = []

    def recording(kernel, **kwargs):
        calls.append((kernel, kwargs, v.integrate_nested(kernel, **kwargs)))
        return calls[-1][2]

    table = v.NodeTable()
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_nested", recording)
        for zs in (first, later):
            results.append(v.potential_multilayer(v.LayerStack(layers, j, zs), atom, table=table))
    spec = dataclasses.replace(v.DEFAULT_SPEC, rel_tol_inner=v.DEFAULT_SPEC.rel_tol_inner / 100,
                               rel_tol_outer=v.DEFAULT_SPEC.rel_tol_outer / 100)
    assert len(calls) == 2
    for (kernel, kwargs, batch), rows in zip(calls, results):
        assert kwargs["z"].ndim == 1 and kwargs["table"] is table
        for z, row, res in zip(kwargs["z"].tolist(), batch, rows):
            assert (res.right if j == 0 else res.left) == res.value == row.value
            if not row.converged:
                continue
            ref = nested_oracle(kernel, z=z, spec=spec, u_scale=kwargs["u_scale"],
                                mode=oracle_mode(z))
            assert ref.converged, (j, z)
            assert abs(row.value - ref.value) <= row.error, (j, z, row, ref)


@pytest.mark.parametrize("multiple_reflections", [True, False])
def test_force_in_a_symmetric_cavity_is_odd_about_its_middle(atom, multiple_reflections):
    # between two equal plates U(z) = U(d - z), so F = -dU/dz is odd about d/2
    # and zero there: the right wall's term, a function of d - z, enters F
    # with the sign -1 and d^2U/dz^2 with +1
    d = 4.0
    zs = np.array([1.0, 2.0, 3.0])
    m = fig2_material()
    force = v.potential_two_plates(atom, m, d, zs, multiple_reflections=multiple_reflections,
                                   power=1)
    curvature = v.potential_two_plates(atom, m, d, zs,
                                       multiple_reflections=multiple_reflections, power=2)
    assert force.converged and curvature.converged
    assert abs(force[1].value) <= force[1].error
    assert abs(force[0].value + force[2].value) <= force[0].error + force[2].error
    assert abs(force[0].value) > 100.0 * force[0].error
    assert abs(curvature[0].value - curvature[2].value) <= curvature[0].error + curvature[2].error
    if multiple_reflections:  # the walls' shares of one table
        assert abs(force[1].left + force[1].right) <= force[1].error
        assert abs(force[1].left) > 100.0 * force[1].error
        assert abs(curvature[1].left - curvature[1].right) <= curvature[1].error

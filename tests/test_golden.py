"""The b-node table, the nested oracle, the coefficient integrals, the reflection coefficients,
the static C4 bracket and the thick border against mpmath references.

``golden.json`` is written by ``scripts/golden_refs.py`` (mpmath, swapped
integration order, at least 20 agreeing digits per value).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import vdwlayers as v

from conftest import NESTED_MODES, on_engine

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
ATOM = v.AtomModel.two_level(GOLDEN["atom"]["frequency"], GOLDEN["atom"]["dipole_sq"])


def _material(doc):
    return v.MaterialModel(electric=[v.Resonance(*r) for r in doc["electric"]],
                           magnetic=[v.Resonance(*r) for r in doc["magnetic"]])


PLATE = _material(GOLDEN["plate"])


def _potential(point, z, spec):
    kind = point["geometry"]
    if kind == "halfspace":
        return v.potential_halfspace(ATOM, PLATE, z, spec)
    if kind == "two-plates":
        return v.potential_two_plates(ATOM, PLATE, point["separation"], z, spec)
    if kind == "thin-plate":
        return v.potential_thin_plate(ATOM, PLATE, point["thickness"], z, spec)
    # a mirror half-space runs the 2-D engines with r_s = -+1, r_p = +-1
    mirror = v.CONDUCTING_MIRROR if kind == "conducting-mirror" else v.PERMEABLE_MIRROR
    return v.potential_halfspace(ATOM, mirror, z, spec)


def _name(point):
    return "-".join(f"{k}={x}" if k != "geometry" else x for k, x in point.items()
                    if k not in ("value", "digits"))


@pytest.mark.parametrize("mode", [None, *NESTED_MODES])
@pytest.mark.parametrize("point", GOLDEN["potentials"], ids=_name)
def test_potential_within_its_error_of_the_golden_value(point, mode):
    with on_engine(mode):
        res = _potential(point, point["z"], v.DEFAULT_SPEC)
    assert res.converged
    assert abs(res.value - float(point["value"])) <= res.error


def test_table_rows_within_their_errors_of_the_golden_values():
    # the three half-space points as one table, the way a scan computes them
    points = [p for p in GOLDEN["potentials"] if p["geometry"] == "halfspace"]
    rows = v.potential_halfspace(ATOM, PLATE, np.array([p["z"] for p in points]))
    for point, res in zip(points, rows):
        assert res.converged
        assert abs(res.value - float(point["value"])) <= res.error, point["z"]


def test_mirror_integral_within_its_error_of_the_golden_value():
    (point,) = [p for p in GOLDEN["potentials"] if p["geometry"] == "conducting-mirror"]
    res = v.potential_mirror(ATOM, point["z"])
    assert abs(res.value - float(point["value"])) <= res.error


def test_permeable_mirror_integral_within_its_error_of_the_golden_value():
    (point,) = [p for p in GOLDEN["potentials"] if p["geometry"] == "permeable-mirror"]
    res = v.potential_mirror(ATOM, point["z"], "permeable")
    assert abs(res.value - float(point["value"])) <= res.error


@pytest.mark.parametrize("entry", GOLDEN["coefficients"], ids=lambda e: e["name"])
def test_coefficient_integral_within_its_error_of_the_golden_value(entry, oned_calls):
    # the coefficients are bare floats: record the 1-D integral behind each, the
    # channels c3, c1 (thick) and d4, d2 (thin) of two calls, and scale its
    # error alike
    thick = v.thick_coefficients(ATOM, PLATE)
    thin = v.thin_coefficients(ATOM, PLATE, 1.0)
    assert len(oned_calls) == 2
    names = ("c3", "c1", "d4", "d2")
    res = dict(zip(names, [channel for batch in oned_calls for channel in batch]))[entry["name"]]
    value = getattr(thick if entry["name"].startswith("c") else thin, entry["name"])
    assert res.converged
    assert abs(value - float(entry["value"])) <= abs(value / res.value) * res.error


@pytest.mark.parametrize("entry", GOLDEN["fresnel"],
                         ids=lambda e: f"{e['material']}-b/u={e['b'] / e['u']:g}")
def test_fresnel_coefficients_at_grazing_b(entry):
    # u << b with a weak response in one polarization: the double-precision
    # numerator cancels unless it is formed from b_M^2
    material = _material(GOLDEN["materials"][entry["material"]])
    stack = v.LayerStack((v.Layer(material, math.inf), v.Layer(v.VACUUM, math.inf)), 1, 1.0)
    r = v.reflection_coefficients(stack, entry["u"], entry["b"])
    assert r.r_s_minus == pytest.approx(float(entry["r_s"]), rel=1e-14, abs=0.0)
    assert r.r_p_minus == pytest.approx(float(entry["r_p"]), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("entry", GOLDEN["static_brackets"],
                         ids=lambda e: f"eps0={e['eps0']:g}-mu0={e['mu0']:g}")
def test_static_bracket_within_1e13_of_the_golden_value(entry):
    value = v.asymptotics._c4_bracket([entry["eps0"]], [entry["mu0"]])[0]
    assert abs(value - float(entry["value"])) <= 1e-13


@pytest.mark.parametrize("entry", GOLDEN["borders"], ids=lambda e: f"eps0={e['eps0']:g}")
def test_thick_border_within_1e12_of_the_golden_root(entry):
    (point,) = v.border_curve("thick", [entry["eps0"]])
    assert point.mu0 == pytest.approx(float(entry["mu0"]), rel=1e-12, abs=0.0)

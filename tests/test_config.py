import copy
import math
import re

import pytest

from vdwlayers.config import ConfigError, load_config, parse_config, with_overrides

PLATE = {"electric": [{"plasma": 0.75, "transverse": 1.03}]}
BASE = {
    "atom": {"transitions": [{"frequency": 1.0, "dipole_sq": 1.0}]},
    "materials": {"plate": PLATE},
    "geometry": {"kind": "halfspace", "material": "plate"},
    "scan": {"z_min": 0.5, "z_max": 2.0, "points": 4},
}
MULTILAYER = {"kind": "multilayer", "atom_layer": 1,
              "layers": [{"material": "plate", "thickness": "inf"},
                         {"material": "vacuum", "thickness": "inf"}]}


def doc(*edits):
    """BASE with each (dotted path, value) set; the value None deletes the key."""
    out = copy.deepcopy(BASE)
    for path, value in edits:
        *parents, key = path.split(".")
        node = out
        for part in parents:
            node = node[part]
        if value is None:
            del node[key]
        else:
            node[key] = value
    return out


def parsed(*edits):
    return lambda tmp_path: parse_config(doc(*edits))


def bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{\"atom\": ")
    load_config(path)


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: parsed()(tmp_path).medium("granite"), "unknown material 'granite'"),
    (lambda tmp_path: parsed()(tmp_path).build_stack(1.0, "granite"),
     "the geometry has no series 'granite'"),
    (lambda tmp_path: parse_config([BASE]), "config: expected an object, got list"),
    (parsed(("materials", None)), "config: missing required key(s) ['materials']"),
    (parsed(("scan.z_min", "0.5")), "config.scan.z_min: expected a number, got '0.5'"),
    (parsed(("scan.z_max", math.inf)), "config.scan.z_max: must be finite, got inf"),
    (parsed(("scan.points", 4.0)), "config.scan.points: expected an integer, got 4.0"),
    (parsed(("scan.points", 1)), "config.scan.points: must be >= 2, got 1"),
    (parsed(("geometry.kind", 3)), "config.geometry.kind: expected a string, got 3"),
    (parsed(("geometry.kind", "sphere")),
     "config.geometry.kind: must be one of ['mirror', 'halfspace', 'plate', 'thin-plate', "
     "'two-plates', 'multilayer'], got 'sphere'"),
    (parsed(("atom.transitions", [])), "config.atom.transitions: expected a non-empty list"),
    (parsed(("materials.plate.electric", {})), "config.materials.plate.electric: expected a list"),
    (parsed(("geometry.material", [])),
     "config.geometry.material: expected a material name or list of names"),
    (parsed(("geometry", dict(MULTILAYER, layers=MULTILAYER["layers"][:1]))),
     "config.geometry.layers: expected a list of at least two layers"),
    (parsed(("geometry", MULTILAYER), ("geometry.layers", [
        {"material": "granite", "thickness": "inf"}, {"material": "vacuum", "thickness": "inf"}])),
     "config.geometry.layers[0].material: unknown material 'granite'"),
    (parsed(("geometry", dict(MULTILAYER, atom_layer=2))),
     "config.geometry.atom_layer: out of range for 2 layers"),
    (parsed(("scan.z_max", 0.5)), "config.scan: z_max must exceed z_min"),
    (parsed(("coeffs", {"materials": "granite"})),  # one name, given as a string
     "config.coeffs.materials: unknown material 'granite'"),
    (parsed(("coeffs", {"materials": {"plate": 1}})),
     "config.coeffs.materials: expected a list of names"),
    (parsed(("coeffs", {"materials": ["plate", "granite"]})),
     "config.coeffs.materials: unknown material 'granite'"),
    (parsed(("check", {"material": "granite", "z": 1.0})),
     "config.check.material: unknown material 'granite'"),
    (bad_json, "{path} is not valid JSON: "),
    (lambda tmp_path: with_overrides(parsed()(tmp_path), None, "adaptive"),
     "there is no quadrature mode to select, got 'adaptive'"),
], ids=["medium-unknown", "series-unknown", "config-not-object", "missing-key",
        "number-not-number", "number-not-finite", "integer-not-integer", "integer-too-small",
        "string-not-string", "string-not-a-choice", "transitions-empty",
        "resonances-not-list", "material-names-empty", "layers-too-few",
        "layer-material-unknown", "atom-layer-out-of-range", "grid-reversed",
        "coeffs-one-name-unknown", "coeffs-names-not-list", "coeffs-name-unknown",
        "check-material-unknown", "file-not-json", "quadrature-mode"])
def test_config_rejects_bad_input_naming_its_path(tmp_path, call, message):
    message = message.format(path=tmp_path / "config.json")
    exact = not message.endswith(": ")  # a JSON decoder's own text follows the colon
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}{'$' if exact else ''}"):
        call(tmp_path)

"""Strict JSON run configuration.

A run is described by a single JSON document; unknown keys anywhere are hard
errors, since a silently ignored typo in a physics parameter is the main
operational hazard.  The schema (all frequencies, lengths and energies in
reduced units):

    {
      "label": "optional run label",
      "atom": {"transitions": [{"frequency": 1.0, "dipole_sq": 1.0}, ...]},
      "materials": {
        "<name>": {"electric": [{"plasma": 0.75, "transverse": 1.03,
                                 "damping": 0.001}, ...],
                   "magnetic": [...]},
        "<name>": {"mirror": "conducting" | "permeable"}
      },
      "geometry": {
        "kind": "mirror",      "mirror": "conducting" | "permeable"
        "kind": "halfspace",   "material": "name" | ["name", ...]
        "kind": "plate",       "material": ..., "thickness": 0.2
        "kind": "thin-plate",  "material": ..., "thickness": 0.01
        "kind": "two-plates",  "material": ..., "separation": 15.0
        "kind": "multilayer",  "layers": [{"material": "name",
                                           "thickness": 2.0 | "inf"}, ...],
                               "atom_layer": 1
      },
      "scan":   {"z_min": 0.01, "z_max": 100.0, "points": 200,
                 "spacing": "log" | "linear"},
      "coeffs": {"materials": ["name", ...], "thickness": 1.0},
      "border": {"plate_kind": "thick" | "thin", "eps_min": 1.0,
                 "eps_max": 100.0, "points": 30, "spacing": "log" | "linear"},
      "wall":   {"z_min": 1e-3, "z_max": 1e2, "samples": 60},
      "check":  {"material": "name", "z": 1.0},
      "quadrature": {"rel_tol_inner": 1e-8, "rel_tol_outer": 1e-7,
                     "abs_tol": 1e-30, "max_subdivisions": 2000}
    }

Every geometry compiles to the layers of a ``LayerStack``, one stack per
series (per name of a material list), a one-medium kind's by ``stack.layout``.
The name "vacuum" is predefined and reserved.  Each command requires its own
section (scan additionally requires geometry; wall requires geometry and
accepts an optional wall section); border's eps_min must be at least 1.
wall takes a geometry whose atom sees one wall, in an outer layer: mirror,
halfspace, plate, thin-plate, or a multilayer with atom_layer first or last;
two-plates or an interior atom_layer is an error naming config.geometry.
The names of a geometry's material list must give distinct series file
labels (each run of characters outside A-Za-z0-9_.- becomes "_"), since
scan and wall name each series' files after its label.
"quadrature" holds tolerances only: there is one engine and no key selects
it.  A result sidecar (a JSON document with a "config" key) is itself
accepted wherever a config is, enabling exact re-runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .materials import (
    VACUUM,
    AtomModel,
    MaterialModel,
    Medium,
    PerfectMirror,
    Resonance,
    Transition,
)
from .asymptotics import _WALL_SAMPLES, _WALL_Z_HI, _WALL_Z_LO
from .quadrature import QuadratureSpec
from .stack import Layer, LayerStack, layout

__all__ = ["ConfigError", "Geometry", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the JSON path."""


_GEOMETRY_KINDS = ("mirror", "halfspace", "plate", "thin-plate", "two-plates", "multilayer")


@dataclass(frozen=True)
class Geometry:
    """Each series' layers, the atom in ``atom_layer``; ``materials`` names the series, one
    per name of a material list, or the one series "mirror-<kind>" or "multilayer"."""

    kind: str
    series: dict[str, tuple[Layer, ...]]
    atom_layer: int

    @property
    def materials(self) -> tuple[str, ...]:
        return tuple(self.series)


@dataclass(frozen=True)
class GridSection:
    lo: float
    hi: float
    points: int
    spacing: str

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class CoeffsSection:
    materials: tuple[str, ...]
    thickness: float


@dataclass(frozen=True)
class CheckSection:
    material: str
    z: float


@dataclass(frozen=True)
class RunConfig:
    atom: AtomModel
    materials: dict[str, Medium]
    geometry: Geometry | None
    scan: GridSection | None
    coeffs: CoeffsSection | None
    border_kind: str | None
    border: GridSection | None
    wall: GridSection
    check: CheckSection | None
    quadrature: QuadratureSpec
    raw: dict

    def medium(self, name: str) -> Medium:
        try:
            return self.materials[name]
        except KeyError:
            raise ConfigError(f"unknown material {name!r}") from None

    def build_stack(self, atom_position, series: str = "multilayer") -> LayerStack:
        """The stack of the series ``series`` with the atom at ``atom_position`` (a float or
        a 1-D array); a multilayer's one series is its default.  An atom position that the
        atom layer cannot hold is a ``ConfigError`` naming config.geometry."""
        geo = self.geometry
        if geo is None or series not in geo.series:
            raise ConfigError(f"the geometry has no series {series!r}")
        try:
            return LayerStack(geo.series[series], geo.atom_layer, atom_position)
        except ValueError as exc:
            raise ConfigError(f"config.geometry: {exc}") from exc


def _safe_label(label: str) -> str:
    """A material name as it appears in the names of the files of its series."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: "
                          f"{sorted(set(required) | set(optional))}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _number(obj, path: str, *, positive=False, nonnegative=False) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    x = float(obj)
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {obj!r}")
    if positive and not x > 0:
        raise ConfigError(f"{path}: must be > 0, got {x}")
    if nonnegative and x < 0:
        raise ConfigError(f"{path}: must be >= 0, got {x}")
    return x


def _integer(obj, path: str, minimum: int = 1) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    if obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {obj}")
    return obj


def _string(obj, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(obj, str):
        raise ConfigError(f"{path}: expected a string, got {obj!r}")
    if choices is not None and obj not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}, got {obj!r}")
    return obj


def _parse_atom(obj, path: str) -> AtomModel:
    obj = _expect_mapping(obj, path)
    _check_keys(obj, path, ("transitions",))
    transitions = obj["transitions"]
    if not isinstance(transitions, list) or not transitions:
        raise ConfigError(f"{path}.transitions: expected a non-empty list")
    parsed = []
    for i, t in enumerate(transitions):
        tp = f"{path}.transitions[{i}]"
        t = _expect_mapping(t, tp)
        _check_keys(t, tp, ("frequency", "dipole_sq"))
        parsed.append(Transition(_number(t["frequency"], f"{tp}.frequency", positive=True),
                                 _number(t["dipole_sq"], f"{tp}.dipole_sq", nonnegative=True)))
    return AtomModel(tuple(parsed))


def _parse_resonances(obj, path: str) -> tuple[Resonance, ...]:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list")
    out = []
    for i, r in enumerate(obj):
        rp = f"{path}[{i}]"
        r = _expect_mapping(r, rp)
        _check_keys(r, rp, ("plasma", "transverse"), ("damping",))
        out.append(Resonance(
            plasma=_number(r["plasma"], f"{rp}.plasma", nonnegative=True),
            transverse=_number(r["transverse"], f"{rp}.transverse", positive=True),
            damping=_number(r.get("damping", 0.0), f"{rp}.damping", nonnegative=True),
        ))
    return tuple(out)


def _parse_materials(obj, path: str) -> dict[str, Medium]:
    obj = _expect_mapping(obj, path)
    out: dict[str, Medium] = {"vacuum": VACUUM}
    for name, body in obj.items():
        mp = f"{path}.{name}"
        if name == "vacuum":
            raise ConfigError(f"{mp}: the name 'vacuum' is reserved")
        body = _expect_mapping(body, mp)
        if "mirror" in body:
            _check_keys(body, mp, ("mirror",))
            out[name] = PerfectMirror(_string(body["mirror"], f"{mp}.mirror",
                                              ("conducting", "permeable")))
        else:
            _check_keys(body, mp, (), ("electric", "magnetic"))
            out[name] = MaterialModel(
                electric=_parse_resonances(body.get("electric", []), f"{mp}.electric"),
                magnetic=_parse_resonances(body.get("magnetic", []), f"{mp}.magnetic"),
            )
    return out


def _parse_geometry(obj, path: str, materials: dict[str, Medium]) -> Geometry:
    obj = _expect_mapping(obj, path)
    _check_keys(obj, path, ("kind",), tuple(obj))  # the kind first: it decides the other keys
    kind = _string(obj["kind"], f"{path}.kind", _GEOMETRY_KINDS)

    def material_names(key: str = "material") -> tuple[str, ...]:
        val = obj.get(key)
        names = [val] if isinstance(val, str) else val
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            raise ConfigError(f"{path}.{key}: expected a material name or list of names")
        labels = {}  # series file label -> the name that gives it
        for n in names:
            if n not in materials:
                raise ConfigError(f"{path}.{key}: unknown material {n!r}")
            label = _safe_label(n)
            if label in labels:
                raise ConfigError(f"{path}.{key}: {labels[label]!r} and {n!r} would write "
                                  f"the same files (series label {label!r})")
            labels[label] = n
        return tuple(names)

    if kind == "mirror":  # the half-space layout of a perfect mirror
        _check_keys(obj, path, ("kind", "mirror"))
        mirror = _string(obj["mirror"], f"{path}.mirror", ("conducting", "permeable"))
        layers, atom_layer = layout("halfspace", PerfectMirror(mirror))
        return Geometry(kind, {f"mirror-{mirror}": layers}, atom_layer)
    if kind == "multilayer":
        _check_keys(obj, path, ("kind", "layers", "atom_layer"))
        raw_layers = obj["layers"]
        if not isinstance(raw_layers, list) or len(raw_layers) < 2:
            raise ConfigError(f"{path}.layers: expected a list of at least two layers")
        layers = []
        for i, layer in enumerate(raw_layers):
            lp = f"{path}.layers[{i}]"
            layer = _expect_mapping(layer, lp)
            _check_keys(layer, lp, ("material", "thickness"))
            name = _string(layer["material"], f"{lp}.material")
            if name not in materials:
                raise ConfigError(f"{lp}.material: unknown material {name!r}")
            th = layer["thickness"]
            thickness = math.inf if th == "inf" else _number(th, f"{lp}.thickness", positive=True)
            layers.append(Layer(materials[name], thickness))
        atom_layer = _integer(obj["atom_layer"], f"{path}.atom_layer", minimum=0)
        if atom_layer >= len(layers):
            raise ConfigError(f"{path}.atom_layer: out of range for {len(layers)} layers")
        return Geometry(kind, {"multilayer": tuple(layers)}, atom_layer)

    # a material list: one series per name, its layers in the kind's layout
    size_key = {"halfspace": None, "two-plates": "separation"}.get(kind, "thickness")
    _check_keys(obj, path, ("kind", "material") + ((size_key,) if size_key else ()))
    names = material_names()
    size = _number(obj[size_key], f"{path}.{size_key}", positive=True) if size_key else None
    series = {}
    for n in names:
        try:
            series[n], atom_layer = layout(kind, materials[n], size)
        except ValueError as exc:  # a perfect mirror as a thin layer
            raise ConfigError(f"{path}.material: {n!r}: {exc}") from exc
    return Geometry(kind, series, atom_layer)


def _parse_grid(obj, path: str, lo_key: str, hi_key: str, default_points: int) -> GridSection:
    obj = _expect_mapping(obj, path)
    _check_keys(obj, path, (lo_key, hi_key), ("points", "spacing"))
    lo = _number(obj[lo_key], f"{path}.{lo_key}", positive=True)
    hi = _number(obj[hi_key], f"{path}.{hi_key}", positive=True)
    if not hi > lo:
        raise ConfigError(f"{path}: {hi_key} must exceed {lo_key}")
    points = _integer(obj.get("points", default_points), f"{path}.points", minimum=2)
    spacing = _string(obj.get("spacing", "log"), f"{path}.spacing", ("log", "linear"))
    return GridSection(lo=lo, hi=hi, points=points, spacing=spacing)


def _parse_quadrature(obj, path: str) -> QuadratureSpec:
    obj = _expect_mapping(obj, path)
    _check_keys(obj, path, (), ("rel_tol_inner", "rel_tol_outer", "abs_tol",
                                "max_subdivisions"))
    kw = {key: _number(obj[key], f"{path}.{key}", positive=True)
          for key in ("rel_tol_inner", "rel_tol_outer", "abs_tol") if key in obj}
    if "max_subdivisions" in obj:
        kw["max_subdivisions"] = _integer(obj["max_subdivisions"], f"{path}.max_subdivisions")
    return QuadratureSpec(**kw)


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document (or a result sidecar embedding one)."""
    doc = _expect_mapping(doc, "config")
    if "config" in doc and "command" in doc:  # result sidecar round-trip
        doc = _expect_mapping(doc["config"], "config.config")
    _check_keys(doc, "config", ("atom", "materials"),
                ("geometry", "scan", "coeffs", "border", "wall", "check",
                 "quadrature", "label"))
    try:
        atom = _parse_atom(doc["atom"], "config.atom")
        materials = _parse_materials(doc["materials"], "config.materials")
        geometry = (_parse_geometry(doc["geometry"], "config.geometry", materials)
                    if "geometry" in doc else None)

        scan = (_parse_grid(doc["scan"], "config.scan", "z_min", "z_max", 200)
                if "scan" in doc else None)

        coeffs = None
        if "coeffs" in doc:
            c = _expect_mapping(doc["coeffs"], "config.coeffs")
            _check_keys(c, "config.coeffs", (), ("materials", "thickness"))
            names = c.get("materials", [n for n in materials if n != "vacuum"])
            if isinstance(names, str):
                names = [names]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ConfigError("config.coeffs.materials: expected a list of names")
            for n in names:
                if n not in materials:
                    raise ConfigError(f"config.coeffs.materials: unknown material {n!r}")
            coeffs = CoeffsSection(
                materials=tuple(names),
                thickness=_number(c.get("thickness", 1.0), "config.coeffs.thickness",
                                  positive=True),
            )

        border_kind = None
        border = None
        if "border" in doc:
            b = _expect_mapping(doc["border"], "config.border")
            _check_keys(b, "config.border", ("plate_kind", "eps_min", "eps_max"),
                        ("points", "spacing"))
            border_kind = _string(b["plate_kind"], "config.border.plate_kind",
                                  ("thick", "thin"))
            border = _parse_grid({k: v for k, v in b.items() if k != "plate_kind"},
                                 "config.border", "eps_min", "eps_max", 30)
            if border.lo < 1.0:
                raise ConfigError(f"config.border.eps_min: must be >= 1, got {border.lo}")

        w = _expect_mapping(doc.get("wall", {}), "config.wall")
        _check_keys(w, "config.wall", (), ("z_min", "z_max", "samples"))
        wall = GridSection(  # locate_wall's scan grid is the default
            lo=_number(w.get("z_min", _WALL_Z_LO), "config.wall.z_min", positive=True),
            hi=_number(w.get("z_max", _WALL_Z_HI), "config.wall.z_max", positive=True),
            points=_integer(w.get("samples", _WALL_SAMPLES), "config.wall.samples", minimum=4),
            spacing="log",
        )
        if not wall.hi > wall.lo:
            raise ConfigError("config.wall: z_max must exceed z_min")

        check = None
        if "check" in doc:
            c = _expect_mapping(doc["check"], "config.check")
            _check_keys(c, "config.check", ("material", "z"))
            name = _string(c["material"], "config.check.material")
            if name not in materials:
                raise ConfigError(f"config.check.material: unknown material {name!r}")
            check = CheckSection(material=name,
                                 z=_number(c["z"], "config.check.z", positive=True))

        quadrature = (_parse_quadrature(doc["quadrature"], "config.quadrature")
                      if "quadrature" in doc else QuadratureSpec())
        if "label" in doc:  # free text, kept in raw for the sidecars
            _string(doc["label"], "config.label")
    except ConfigError:
        raise
    except ValueError as exc:  # domain validation from the model dataclasses
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        atom=atom, materials=materials, geometry=geometry, scan=scan, coeffs=coeffs,
        border_kind=border_kind, border=border, wall=wall, check=check,
        quadrature=quadrature, raw=doc,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def with_overrides(cfg: RunConfig, rel_tol: float | None, mode: None = None) -> RunConfig:
    """Apply the CLI's ``--rel-tol``; the flag beats the config's tolerances.

    ``mode`` is kept only because ``perfbench/run.py`` passes None in its
    place; the library has one engine, so any other value is an error.
    """
    if mode is not None:
        raise ConfigError(f"there is no quadrature mode to select, got {mode!r}")
    if rel_tol is None:
        return cfg
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ConfigError(f"--rel-tol must be finite and > 0, got {rel_tol}")
    spec = dataclasses.replace(cfg.quadrature, rel_tol_outer=rel_tol, rel_tol_inner=rel_tol / 10.0)
    raw = dict(cfg.raw)
    raw["quadrature"] = dataclasses.asdict(spec)
    return dataclasses.replace(cfg, quadrature=spec, raw=raw)

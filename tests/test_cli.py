import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vdwlayers as v
from vdwlayers import cli
from vdwlayers.cli import main
from vdwlayers.config import ConfigError, parse_config

ATOM = {"transitions": [{"frequency": 1.0, "dipole_sq": 1.0}]}
PLATE = {
    "electric": [{"plasma": 0.75, "transverse": 1.03, "damping": 0.001}],
    "magnetic": [{"plasma": 2.0, "transverse": 1.0, "damping": 0.001}],
}
WEAK = {
    "electric": [{"plasma": 0.0326, "transverse": 1.03}],
    "magnetic": [{"plasma": 0.0316, "transverse": 1.0}],
}
FAST_QUAD = {"rel_tol_inner": 1e-6, "rel_tol_outer": 1e-5}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(tmp_path, command, doc, *extra):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    return main([command, "--config", str(cfg), "--out", str(out), *extra]), out


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def scan_doc(**overrides):
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE},
        "geometry": {"kind": "halfspace", "material": "plate"},
        "scan": {"z_min": 0.5, "z_max": 2.0, "points": 4},
        "quadrature": FAST_QUAD,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------- config validation

def test_unknown_key_is_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "scan", scan_doc(turbo=True))
    assert code == 2
    assert "turbo" in capsys.readouterr().err


def test_unknown_material_reference(tmp_path, capsys):
    doc = scan_doc()
    doc["geometry"] = {"kind": "halfspace", "material": "granite"}
    code, _ = run(tmp_path, "scan", doc)
    assert code == 2
    assert "granite" in capsys.readouterr().err


def test_negative_parameter_rejected(tmp_path, capsys):
    doc = scan_doc()
    doc["materials"] = {"plate": {"electric": [{"plasma": -1.0, "transverse": 1.0}]}}
    code, _ = run(tmp_path, "scan", doc)
    assert code == 2


def test_vacuum_name_reserved(tmp_path, capsys):
    doc = scan_doc()
    doc["materials"] = {"vacuum": PLATE, "plate": PLATE}
    code, _ = run(tmp_path, "scan", doc)
    assert code == 2


@pytest.mark.parametrize("command", ["scan", "wall"])
def test_thin_plate_mirror_rejected(tmp_path, capsys, command):
    doc = scan_doc(materials={"plate": PLATE, "wall": {"mirror": "conducting"}})
    doc["geometry"] = {"kind": "thin-plate", "material": ["plate", "wall"], "thickness": 0.01}
    code, _ = run(tmp_path, command, doc)
    assert code == 2
    assert "config.geometry.material" in capsys.readouterr().err


@pytest.mark.parametrize("rel_tol", ["0", "-1", "nan", "inf"])
def test_rel_tol_flag_rejected(tmp_path, capsys, rel_tol):
    code, _ = run(tmp_path, "scan", scan_doc(), "--rel-tol", rel_tol)
    assert code == 2
    assert "--rel-tol must be finite and > 0" in capsys.readouterr().err


def test_missing_section(tmp_path, capsys):
    doc = scan_doc()
    del doc["scan"]
    code, _ = run(tmp_path, "scan", doc)
    assert code == 2
    assert "config.scan: scan needs a scan section" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit, message", [
    ("scan", {"geometry": None}, "config.geometry: scan needs a geometry section"),
    ("coeffs", {}, "config.coeffs: coeffs needs a coeffs section"),
    ("border", {}, "config.border: border needs a border section"),
    ("wall", {"geometry": None}, "config.geometry: wall needs a geometry section"),
    ("check", {}, "config.check: check needs a check section"),
    ("check", {"materials": {"plate": PLATE, "wall": {"mirror": "conducting"}},
               "check": {"material": "wall", "z": 1.0}},
     "config.check.material: additivity check needs a dispersive material"),
], ids=["scan-no-geometry", "coeffs-no-section", "border-no-section", "wall-no-geometry",
        "check-no-section", "check-mirror"])
def test_command_rejects_a_config_without_what_it_needs(tmp_path, command, edit, message):
    doc = {key: value for key, value in scan_doc(**edit).items() if value is not None}
    args = cli.build_parser().parse_args([command, "--config", "unused.json",
                                          "--out", str(tmp_path / "out")])
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli._COMMANDS[command](parse_config(doc), args)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- scan

def test_scan_vacuum_all_zero(tmp_path):
    doc = scan_doc()
    doc["geometry"] = {"kind": "halfspace", "material": "vacuum"}
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    header, rows = read_rows(out / "scan_vacuum.csv")
    assert header == ["z_A", "U", "err", "U_left", "U_right", "converged"]
    assert len(rows) == 4
    assert all(float(r["U"]) == 0.0 for r in rows)
    assert all(r["converged"] == "1" for r in rows)


def test_scan_deterministic_and_parallel_consistent(tmp_path):
    doc = scan_doc()
    cfg = write_config(tmp_path, doc)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["scan", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "scan_plate.csv").read_bytes() == (out2 / "scan_plate.csv").read_bytes()


def test_sidecar_round_trip(tmp_path):
    doc = scan_doc()
    code, out = run(tmp_path, "scan", doc, "--rel-tol", "1e-5")
    assert code == 0
    first = (out / "scan_plate.csv").read_bytes()
    sidecar = out / "scan.meta.json"
    meta = json.loads(sidecar.read_text())
    assert meta["command"] == "scan"
    assert meta["outputs"] == ["scan_plate.csv"]
    # the kernel points of each series' potentials, as the wall sidecar counts them
    cfg = parse_config(doc)
    scan = v.potential_halfspace(cfg.atom, cfg.medium("plate"), cfg.scan.values(),
                                 v.QuadratureSpec(**meta["quadrature"]))
    assert meta["diagnostics"] == {"plate": {"kernel_points": sum(r.evaluations for r in scan)}}
    assert meta["diagnostics"]["plate"]["kernel_points"] > 0
    out2 = tmp_path / "rerun"
    assert main(["scan", "--config", str(sidecar), "--out", str(out2)]) == 0
    assert (out2 / "scan_plate.csv").read_bytes() == first
    assert (out2 / "scan.meta.json").read_bytes() == sidecar.read_bytes()


def test_sidecar_records_library_versions(tmp_path, monkeypatch):
    import importlib.metadata
    import platform

    from vdwlayers import cli

    code, out = run(tmp_path, "scan", scan_doc())
    assert code == 0
    versions = json.loads((out / "scan.meta.json").read_text())["versions"]
    assert versions == {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": importlib.metadata.version("scipy")}

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    # without scipy installed the entry is null
    monkeypatch.setattr(importlib.metadata, "version", missing)
    cli._library_versions.cache_clear()
    try:
        code, out = run(tmp_path, "scan", scan_doc())
    finally:
        cli._library_versions.cache_clear()
    assert code == 0
    assert json.loads((out / "scan.meta.json").read_text())["versions"]["scipy"] is None


def test_scan_series_sign_pattern(tmp_path):
    # growing wall with mu(0): the mu0=1 series stays attractive, mu0=5 does not
    materials = {
        "mu1": {"electric": PLATE["electric"]},
        "mu5": PLATE,
    }
    doc = scan_doc(materials=materials)
    doc["geometry"] = {"kind": "halfspace", "material": ["mu1", "mu5"]}
    doc["scan"] = {"z_min": 1.0, "z_max": 10.0, "points": 6}
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    _, rows1 = read_rows(out / "scan_mu1.csv")
    _, rows5 = read_rows(out / "scan_mu5.csv")
    assert all(float(r["U"]) < 0.0 for r in rows1)
    assert max(float(r["U"]) for r in rows5) > 0.0


def two_plates_doc():
    doc = scan_doc()
    doc["geometry"] = {"kind": "two-plates", "material": "plate", "separation": 6.0}
    doc["scan"] = {"z_min": 2.0, "z_max": 4.0, "points": 3, "spacing": "linear"}
    return doc


def test_scan_two_plates_emits_reference_column(tmp_path):
    doc = two_plates_doc()
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    header, rows = read_rows(out / "scan_plate.csv")
    assert "U_noreflect" in header
    mid = rows[1]
    assert float(mid["z_A"]) == 3.0
    # decomposition is exact bookkeeping
    assert float(mid["U_left"]) + float(mid["U_right"]) == pytest.approx(
        float(mid["U"]), rel=1e-12
    )
    # U and U_noreflect are channels of one table: the sidecar gives its kernel
    # points, fewer than the two separate calls', and each row lies within its
    # error of the separate call's
    cfg = parse_config(doc)
    zs = cfg.scan.values()
    cavity = v.potential_two_plates(cfg.atom, cfg.medium("plate"), 6.0, zs, cfg.quadrature)
    noreflect = v.potential_two_plates(cfg.atom, cfg.medium("plate"), 6.0, zs, cfg.quadrature,
                                       multiple_reflections=False)
    meta = json.loads((out / "scan.meta.json").read_text())
    points = meta["diagnostics"]["plate"]["kernel_points"]
    assert meta["diagnostics"] == {"plate": {"kernel_points": points}}
    assert 0 < points < cavity.evaluations + noreflect.evaluations
    for row, full, bare in zip(rows, cavity, noreflect):
        assert abs(float(row["U"]) - full.value) <= float(row["err"]) + full.error
        assert abs(float(row["U_noreflect"]) - bare.value) <= bare.error
    assert all(r["converged"] == "1" for r in rows)


def test_scan_two_plates_is_one_nested_call_per_series(tmp_path, monkeypatch):
    from vdwlayers import potential as module

    calls = []
    real = module.integrate_nested

    def counted(*args, **kwargs):
        calls.append(kwargs["z"].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "integrate_nested", counted)
    doc = two_plates_doc()
    doc["materials"]["weak"] = WEAK
    doc["geometry"]["material"] = ["plate", "weak"]
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    assert calls == [(4, 3), (4, 3)]  # per series: U's two walls, then U_noreflect's


@pytest.mark.parametrize("z_max", [6.0, 7.5])
def test_scan_two_plates_past_the_gap_is_a_config_error(tmp_path, capsys, z_max):
    # the atom must stay inside the gap: the stack built at z_max rejects it
    doc = two_plates_doc()
    doc["scan"]["z_max"] = z_max
    code, out = run(tmp_path, "scan", doc)
    assert code == 2
    assert "config error: config.geometry: atom_position must be finite and in (0, 6.0), " \
        f"got {z_max}" in capsys.readouterr().err
    assert not out.exists()


def test_scan_two_plates_flags_a_nonconverged_reference(tmp_path, monkeypatch, capsys):
    # a U_noreflect that did not converge clears its row's converged flag and
    # makes the command exit 3, as the potential's own rows do
    real = cli._wall_potentials

    def unconverged_reference(*args, **kwargs):
        cavity, noreflect = real(*args, **kwargs)
        return [cavity, dataclasses.replace(noreflect,
                                            row_converged=np.zeros_like(noreflect.row_converged))]

    monkeypatch.setattr(cli, "_wall_potentials", unconverged_reference)
    code, out = run(tmp_path, "scan", two_plates_doc())
    assert code == 3
    _, rows = read_rows(out / "scan_plate.csv")
    assert len(rows) == 3 and all(r["converged"] == "0" for r in rows)
    assert all(math.isfinite(float(r["U_noreflect"])) for r in rows)


@pytest.mark.parametrize("kind", ["plate", "thin-plate"])
def test_scan_plate_columns_match_library(tmp_path, kind):
    doc = scan_doc()
    doc["geometry"] = {"kind": kind, "material": "plate", "thickness": 0.01}
    code, out = run(tmp_path, "scan", doc, "--threads", "1")
    assert code == 0
    _, rows = read_rows(out / "scan_plate.csv")
    cfg = parse_config(doc)
    potential = v.potential_plate if kind == "plate" else v.potential_thin_plate
    assert len(rows) == 4
    # the library called with the scan's array, as the CLI calls it: the same bytes
    zs = np.array([float(row["z_A"]) for row in rows])
    results = potential(cfg.atom, cfg.medium("plate"), 0.01, zs, cfg.quadrature)
    for row, res in zip(rows, results):
        assert float(row["U"]) == res.value
        assert float(row["U_left"]) == res.left
        assert float(row["U_right"]) == res.right


def test_thin_plate_scan_warns_outside_regime(tmp_path):
    # n(0) d / z = 0.111 at z = 0.05; the warning comes from the process that runs main()
    doc = scan_doc()
    doc["geometry"] = {"kind": "thin-plate", "material": "plate", "thickness": 0.002}
    doc["scan"] = {"z_min": 0.05, "z_max": 2.0, "points": 4}
    with pytest.warns(UserWarning, match=r"outside its regime at 1 of 4 z: "
                                         r"largest n\(0\) d / z = 0\.111 > 0\.1"):
        code, out = run(tmp_path, "scan", doc, "--threads", "2")
    assert code == 0
    _, rows = read_rows(out / "scan_plate.csv")
    assert len(rows) == 4
    # the sidecar keeps the warning, also when the caller ignores warnings,
    # and still replays the data byte for byte
    sidecar = out / "scan.meta.json"
    expected = ["plate: thin-plate linearization used outside its regime at 1 of 4 z: "
                "largest n(0) d / z = 0.111 > 0.1"]
    assert json.loads(sidecar.read_text())["warnings"] == expected
    rerun = tmp_path / "rerun"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["scan", "--config", str(sidecar), "--out", str(rerun)]) == 0
    assert (rerun / "scan_plate.csv").read_bytes() == (out / "scan_plate.csv").read_bytes()
    assert json.loads((rerun / "scan.meta.json").read_text())["warnings"] == expected


def test_thin_plate_wall_sidecar_keeps_its_warnings(tmp_path):
    # n(0) d / z = 2.77 at z = 0.01: the wall's search warns as the scan does,
    # and its sidecar keeps the warning as the scan's does
    doc = scan_doc()
    del doc["scan"]
    doc["geometry"] = {"kind": "thin-plate", "material": "plate", "thickness": 0.01}
    doc["wall"] = {"z_min": 0.01, "z_max": 10.0, "samples": 8}
    message = ("thin-plate linearization used outside its regime at 4 of 8 z: "
               "largest n(0) d / z = 2.77 > 0.1")
    with pytest.warns(UserWarning, match=re.escape(message)):
        code, out = run(tmp_path, "wall", doc)
    assert code == 0
    assert json.loads((out / "wall.meta.json").read_text())["warnings"] == [f"plate: {message}"]
    # the scan on the same config records the same warning
    doc["scan"] = {"z_min": 0.01, "z_max": 10.0, "points": 8}
    with pytest.warns(UserWarning, match=re.escape(message)):
        assert main(["scan", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "scan")]) == 0
    assert json.loads((tmp_path / "scan" / "scan.meta.json").read_text())["warnings"] == \
        [f"plate: {message}"]


def test_thin_plate_wall_of_several_materials_names_the_stack_that_warns(tmp_path):
    # one search for both series: the sidecar lists its warnings under both
    # names, and the warning names the stack, the series' place in that list.
    # n(0) d / z is 0.138 for the plate at z = 0.01, 0.05 for the faint one
    doc = scan_doc(materials={"plate": PLATE,
                              "faint": {"electric": [{"plasma": 0.02, "transverse": 1.03}]}})
    del doc["scan"]
    doc["geometry"] = {"kind": "thin-plate", "material": ["plate", "faint"], "thickness": 5e-4}
    doc["wall"] = {"z_min": 0.01, "z_max": 10.0, "samples": 8}
    message = ("thin-plate linearization used outside its regime in stack 0 at 1 of 8 z: "
               "largest n(0) d / z = 0.138 > 0.1")
    with pytest.warns(UserWarning, match=re.escape(message)):
        code, out = run(tmp_path, "wall", doc)
    assert code == 0
    assert json.loads((out / "wall.meta.json").read_text())["warnings"] == [
        f"plate, faint: {message}"]


def test_scan_mirror_geometry(tmp_path):
    doc = scan_doc()
    doc["geometry"] = {"kind": "mirror", "mirror": "conducting"}
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    _, rows = read_rows(out / "scan_mirror-conducting.csv")
    assert all(float(r["U"]) < 0.0 for r in rows)
    # the mirror runs the b-node table as a half-space; the closed form checks it
    for r in rows:
        ref = v.potential_mirror(v.AtomModel.two_level(), float(r["z_A"])).value
        assert abs(float(r["U"]) - ref) <= float(r["err"])


def test_scan_multilayer_geometry(tmp_path):
    doc = scan_doc()
    doc["geometry"] = {
        "kind": "multilayer",
        "layers": [
            {"material": "plate", "thickness": "inf"},
            {"material": "vacuum", "thickness": 5.0},
            {"material": "plate", "thickness": 0.5},
            {"material": "vacuum", "thickness": "inf"},
        ],
        "atom_layer": 1,
    }
    doc["scan"] = {"z_min": 1.0, "z_max": 4.0, "points": 3, "spacing": "linear"}
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    _, rows = read_rows(out / "scan_multilayer.csv")
    assert len(rows) == 3
    assert all(r["converged"] == "1" for r in rows)


def test_scan_flags_unconverged_rows(tmp_path):
    doc = scan_doc()
    doc["quadrature"] = {"rel_tol_outer": 1e-12, "rel_tol_inner": 1e-13,
                         "max_subdivisions": 1}
    code, out = run(tmp_path, "scan", doc, "--threads", "1")
    assert code == 3
    _, rows = read_rows(out / "scan_plate.csv")
    assert any(r["converged"] == "0" for r in rows)


def test_quad_mode_flag_and_key_rejected(tmp_path, capsys):
    # the library has one engine: neither the old flag nor the old key selects another
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "scan", scan_doc(), "--quad-mode", "direct")
    assert exc.value.code == 2
    assert "--quad-mode" in capsys.readouterr().err
    code, out = run(tmp_path, "scan", scan_doc(quadrature={**FAST_QUAD, "mode": "direct"}))
    assert code == 2
    assert "config.quadrature: unknown key(s) ['mode']" in capsys.readouterr().err
    assert not out.exists()


def test_scan_json_format(tmp_path):
    code, out = run(tmp_path, "scan", scan_doc(), "--format", "json")
    assert code == 0
    doc = json.loads((out / "scan_plate.json").read_text())
    assert doc["columns"][0] == "z_A"
    assert len(doc["rows"]) == 4


def _strict_json(path):
    def no_constant(token):
        raise ValueError(f"{path.name}: bare {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=no_constant)


def test_write_table_csv_cells_match_the_per_cell_formatter(tmp_path):
    rows = [
        (1.5, -0.0, math.inf, -math.inf, math.nan, 0.1, 1e-300, 3, -7, True, False),
        (None, "a b", "", np.float64(0.1), np.float64(-math.inf), np.int64(7), np.bool_(True),
         np.float32(0.1), 2**70, 5e-324),
    ]
    columns = ["c"] * len(rows[0])
    path = tmp_path / "t.csv"
    cli._write_table(path, columns, rows, "csv")
    expected = [  # a numpy scalar is written as the Python scalar of the same value
        "1.5,-0,inf,-inf,nan,0.10000000000000001,1e-300,3,-7,1,0",
        "nan,a b,,0.10000000000000001,-inf,7,1,0.10000000149011612,1180591620717411303424,"
        "4.9406564584124654e-324",
    ]
    assert path.read_text() == "\n".join([",".join(columns), *expected]) + "\n"


def test_write_table_json_is_strict(tmp_path):
    path = tmp_path / "t.json"
    cli._write_table(path, ["a", "b", "c", "d", "e"],
                     [(math.inf, -math.inf, math.nan, None, 0.25), ("x", 1, True, 1e-300, -0.0),
                      (np.float64(-math.inf), np.int64(7), np.bool_(True), np.float32(0.1),
                       np.bool_(False))],
                     "json")
    doc = _strict_json(path)
    assert doc["rows"] == [["inf", "-inf", "nan", None, 0.25], ["x", 1, True, 1e-300, -0.0],
                           ["-inf", 7, True, 0.10000000149011612, False]]


def test_coeffs_json_with_a_conducting_mirror_is_strict(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE, "wall": {"mirror": "conducting"}},
        "coeffs": {"materials": ["plate", "wall"], "thickness": 1.0},
    }
    code, out = run(tmp_path, "coeffs", doc, "--format", "json")
    assert code == 0
    table = _strict_json(out / "coeffs.json")
    rows = {r[0]: dict(zip(table["columns"], r)) for r in table["rows"]}
    assert rows["wall"]["c1"] == "inf"
    assert (rows["wall"]["d5"], rows["wall"]["thin_method"]) == (None, "undefined")
    assert all(isinstance(rows["plate"][c], float) for c in ("c4", "c3", "c1", "d5", "d4", "d2"))


@pytest.mark.parametrize("command", ["scan", "wall"])
@pytest.mark.parametrize("names", [["a b", "a_b"], ["m", "m"]], ids=["same-label", "same-name"])
def test_series_that_would_share_files_are_rejected(tmp_path, capsys, command, names):
    doc = {
        "atom": ATOM,
        "materials": {n: PLATE for n in names},
        "geometry": {"kind": "halfspace", "material": names},
        "scan": {"z_min": 0.5, "z_max": 2.0, "points": 3},
        "wall": {"z_min": 1e-3, "z_max": 1.0, "samples": 8},
        "quadrature": FAST_QUAD,
    }
    code, out = run(tmp_path, command, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config.geometry.material: {names[0]!r} and {names[1]!r} would write the same files" \
        in err
    assert not out.exists()


def test_coeffs_makes_one_oned_integral(tmp_path, oned_calls):
    # the four short-distance channels of each dispersive material share one
    # call; the mirror keeps its closed limits outside it
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE, "weak": WEAK, "wall": {"mirror": "conducting"}},
        "coeffs": {"materials": ["plate", "wall", "weak"], "thickness": 1.0},
    }
    code, _ = run(tmp_path, "coeffs", doc)
    assert code == 0
    assert [len(c) for c in oned_calls] == [8]


def test_wall_estimates_make_one_oned_integral(tmp_path, oned_calls):
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE, "weak": {
            "electric": [{"plasma": 0.02, "transverse": 1.03}],
            "magnetic": [{"plasma": 2.0, "transverse": 1.0}]}},
        "geometry": {"kind": "halfspace", "material": ["plate", "weak"]},
        "wall": {"z_min": 1e-3, "z_max": 1.0, "samples": 8},
        "quadrature": FAST_QUAD,
    }
    code, _ = run(tmp_path, "wall", doc)
    assert code == 0
    assert [len(c) for c in oned_calls] == [4]


def fig2_plate(mu0):
    """``PLATE``'s electric response with the magnetic resonance of mu(0) = ``mu0``."""
    magnetic = [{"plasma": math.sqrt(mu0 - 1.0), "transverse": 1.0, "damping": 0.001}]
    return {"electric": PLATE["electric"], "magnetic": magnetic if mu0 > 1.0 else []}


def test_wall_over_several_materials_is_one_search(tmp_path, monkeypatch, oned_calls):
    # every series is a channel of one table: one scan call, one root search
    # over every bracket and one certifying call, which on these plates
    # computes no kernel point.  Each series' sidecar kernel points are its
    # rows' shares of the shared calls, and each wall lies within its z_err
    # of the wall that the material alone gives.
    from vdwlayers import potential as module

    nested, roots = [], []
    real_nested, real_root = module.integrate_nested, v.asymptotics._bracketed_root
    monkeypatch.setattr(module, "integrate_nested", lambda *args, **kwargs: nested.append(
        real_nested(*args, **kwargs)) or nested[-1])
    monkeypatch.setattr(v.asymptotics, "_bracketed_root", lambda *args: roots.append(args) or
                        real_root(*args))
    names = ["mu5", "mu1", "mu10"]
    doc = {
        "atom": ATOM,
        "materials": {name: fig2_plate(float(name[2:])) for name in names},
        "geometry": {"kind": "halfspace", "material": names},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 12},
    }
    code, out = run(tmp_path, "wall", doc)
    assert code == 0
    assert len(nested) == 2 and len(roots) == 1 and len(roots[0][2]) == 2
    assert [len(c) for c in oned_calls] == [6]
    diagnostics = json.loads((out / "wall.meta.json").read_text())["diagnostics"]
    assert [diagnostics[n]["scan_kernel_points"] for n in names] == [
        batch.evaluations for batch in nested[0]]
    assert [diagnostics[n]["certify_kernel_points"] for n in names] == [0, 0, 0]
    for name in names:
        _, rows = read_rows(out / f"wall_{name}.csv")
        one = {**doc, "geometry": {"kind": "halfspace", "material": name}}
        (tmp_path / name).mkdir()
        code, alone = run(tmp_path / name, "wall", one)
        assert code == 0
        _, alone_rows = read_rows(alone / f"wall_{name}.csv")
        assert [r["status"] for r in rows] == [r["status"] for r in alone_rows]
        shared, single = rows[0], alone_rows[0]
        assert shared["method"] == "numeric-scan"
        if name == "mu1":
            assert shared["status"] == "no-wall"
            continue
        assert abs(float(shared["z_max"]) - float(single["z_max"])) <= float(shared["z_err"])
        for est, est_alone in zip(rows[1:], alone_rows[1:]):
            assert float(est["z_max"]) == pytest.approx(float(est_alone["z_max"]), rel=1e-6)


def test_wall_numeric_failure_keeps_the_other_materials(tmp_path, capsys):
    # the certifying rows of one series do not converge: that series' numeric
    # row fails, the other's wall is still found and written, and the run exits 3
    doc = {
        "atom": ATOM,
        "materials": {"bad": PLATE, "good": fig2_plate(10.0)},
        "geometry": {"kind": "halfspace", "material": ["bad", "good"]},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 12},
    }
    real = v.potential_multilayer
    calls = []

    def flaky(stacks, atom, spec, *, table, power):
        calls.append(len(stacks))
        results = real(stacks, atom, spec, table=table, power=power)
        if len(calls) == 1:
            return results
        return [dataclasses.replace(results[0],
                                    row_converged=np.zeros_like(results[0].row_converged)),
                *results[1:]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("vdwlayers.cli.potential_multilayer", flaky)
        code, out = run(tmp_path, "wall", doc)
    assert code == 3 and calls == [2, 2]
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: wall refinement: quadrature did not converge at z = ")
    _, rows = read_rows(out / "wall_bad.csv")
    assert [r["status"] for r in rows if r["method"] == "numeric-scan"] == ["failed"]
    _, rows = read_rows(out / "wall_good.csv")
    assert all(r["status"] == "ok" for r in rows)
    meta = json.loads((out / "wall.meta.json").read_text())
    assert meta["error"] == "bad: numeric-scan: " + err.strip().removeprefix("numerical failure: ")
    assert meta["diagnostics"]["good"]["z_err"] == float(rows[0]["z_err"]) > 0.0


# ---------------------------------------------------------------- coeffs / border / wall / check

def test_coeffs_command(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE, "wall": {"mirror": "conducting"}},
        "coeffs": {"materials": ["plate", "wall", "vacuum"], "thickness": 1.0},
    }
    code, out = run(tmp_path, "coeffs", doc)
    assert code == 0
    _, rows = read_rows(out / "coeffs.csv")
    by_name = {r["material"]: r for r in rows}
    assert float(by_name["plate"]["c4"]) > 0.0  # mu(0)=5 wins at long range
    assert float(by_name["vacuum"]["c4"]) == 0.0
    alpha0 = 2.0 / 3.0
    assert float(by_name["wall"]["c4"]) == pytest.approx(
        -3.0 * alpha0 / (32.0 * math.pi**2), rel=1e-12
    )
    assert by_name["wall"]["thin_method"] == "undefined"


@pytest.fixture
def first_material_fails(monkeypatch):
    """Each ``asymptotics.integrate_semi_infinite`` call of the test returns its batch
    with the rows of the first material's channels (its first ``rows``) not converged."""
    real = v.asymptotics.integrate_semi_infinite

    def failing(rows):
        def integrate(*args, **kwargs):
            batch = real(*args, **kwargs)
            converged = batch.row_converged.copy()
            converged[:rows] = False
            return dataclasses.replace(batch, row_converged=converged)
        monkeypatch.setattr(v.asymptotics, "integrate_semi_infinite", integrate)
    return failing


def test_coeffs_failure_keeps_the_other_materials(tmp_path, capsys, first_material_fails):
    # one material's channels of the shared integral fail: its row says so,
    # the other material's row is still written, the sidecar names the
    # failure, and the run exits 3
    doc = {
        "atom": ATOM,
        "materials": {"bad": PLATE, "good": WEAK},
        "coeffs": {"materials": ["bad", "good"], "thickness": 1.0},
    }
    first_material_fails(4)
    code, out = run(tmp_path, "coeffs", doc)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: quadrature for short-distance 1/z^3 coefficient "
                          "did not converge (error estimate ")
    _, rows = read_rows(out / "coeffs.csv")
    assert [r["material"] for r in rows] == ["bad", "good"]
    assert all(rows[0][c] == "nan" for c in ("c4", "c3", "c1", "d5", "d4", "d2"))
    assert (rows[0]["thick_method"], rows[0]["thin_method"]) == ("failed", "failed")
    assert all(math.isfinite(float(rows[1][c])) for c in ("c4", "c3", "c1", "d5", "d4", "d2"))
    meta = json.loads((out / "coeffs.meta.json").read_text())
    assert meta["outputs"] == ["coeffs.csv"]
    assert meta["error"] == "bad: " + err.strip().removeprefix("numerical failure: ")


def test_border_thin_command(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {},
        "border": {"plate_kind": "thin", "eps_min": 1.0, "eps_max": 4.0, "points": 3},
    }
    code, out = run(tmp_path, "border", doc)
    assert code == 0
    _, rows = read_rows(out / "border_thin.csv")
    assert float(rows[0]["mu0"]) == pytest.approx(1.0, abs=1e-12)
    assert all(r["status"] == "ok" for r in rows)


def test_border_thick_command_matches_library_for_any_threads(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {},
        "border": {"plate_kind": "thick", "eps_min": 1.0, "eps_max": 100.0, "points": 6,
                   "spacing": "log"},
    }
    cfg = write_config(tmp_path, doc)
    data = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main(["border", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        data.append((out / "border_thick.csv").read_bytes())
    assert data[0] == data[1]
    _, rows = read_rows(tmp_path / "out1" / "border_thick.csv")
    parsed = parse_config(doc)
    eps = [float(e) for e in parsed.border.values()]
    points = v.border_curve("thick", eps, parsed.quadrature)
    assert [float(r["eps0"]) for r in rows] == eps
    assert [float(r["mu0"]) for r in rows] == [p.mu0 for p in points]
    assert all(r["status"] == "ok" and r["method"] == "root-find" for r in rows)


def test_wall_no_wall_record(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {"electric": {"electric": PLATE["electric"]}},
        "geometry": {"kind": "halfspace", "material": "electric"},
        "wall": {"z_min": 0.01, "z_max": 10.0, "samples": 10},
        "quadrature": FAST_QUAD,
    }
    code, out = run(tmp_path, "wall", doc)
    assert code == 0
    _, rows = read_rows(out / "wall_electric.csv")
    numeric = [r for r in rows if r["method"] == "numeric-scan"]
    assert numeric[0]["status"] == "no-wall"
    assert (numeric[0]["z_max"], numeric[0]["z_err"]) == ("nan", "nan")
    ratio = [r for r in rows if r["method"] == "coefficient-ratio"]
    assert ratio[0]["status"] == "no-wall"


def test_wall_with_estimates(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {
            "weak": {
                "electric": [{"plasma": 0.02, "transverse": 1.03}],
                "magnetic": [{"plasma": 2.0, "transverse": 1.0}],
            }
        },
        "geometry": {"kind": "halfspace", "material": "weak"},
        "wall": {"z_min": 1e-3, "z_max": 1.0, "samples": 16},
        "quadrature": FAST_QUAD,
    }
    code, out = run(tmp_path, "wall", doc)
    assert code == 0
    header, rows = read_rows(out / "wall_weak.csv")
    assert header == ["material", "method", "z_max", "z_err", "U_max", "consistency", "status"]
    for row in rows:  # the numeric wall carries its position error, the estimates none
        if row["method"] == "numeric-scan":
            assert 0.0 < float(row["z_err"]) < 1e-6 * float(row["z_max"])
        else:
            assert row["z_err"] == "nan"
    methods = {r["method"] for r in rows}
    assert {"numeric-scan", "coefficient-ratio", "two-level-closed-form"} <= methods
    z_by_method = {r["method"]: float(r["z_max"]) for r in rows}
    assert z_by_method["numeric-scan"] == pytest.approx(
        z_by_method["two-level-closed-form"], rel=0.15
    )


def test_wall_sidecar_counts_kernel_points_of_scan_and_rounds(tmp_path):
    # the search keeps one b-node table per material: on the fig2 plate the
    # scan's nodes serve the certifying call at the force's root, which
    # computes no kernel point; the sidecar also gives the wall's z_err and
    # its certified force
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE},
        "geometry": {"kind": "halfspace", "material": "plate"},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 12},
    }
    code, out = run(tmp_path, "wall", doc)
    assert code == 0
    meta = json.loads((out / "wall.meta.json").read_text())
    points = meta["diagnostics"]["plate"]
    assert points["certify_kernel_points"] == 0
    _, rows = read_rows(out / "wall_plate.csv")
    (numeric,) = [r for r in rows if r["method"] == "numeric-scan"]
    assert points["z_err"] == float(numeric["z_err"]) > 0.0
    assert abs(points["force"]) <= 1e-6 * float(numeric["U_max"]) / float(numeric["z_max"])
    scan = v.potential_halfspace(v.AtomModel.two_level(), parse_config(doc).medium("plate"),
                                 np.geomspace(0.2, 5.0, 12))
    assert points["scan_kernel_points"] == sum(r.evaluations for r in scan) > 0
    # the sidecar still replays as a config, to the same bytes
    rerun = tmp_path / "rerun"
    assert main(["wall", "--config", str(out / "wall.meta.json"), "--out", str(rerun)]) == 0
    for name in ("wall_plate.csv", "wall.meta.json"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


def test_commands_build_no_per_row_results(tmp_path, monkeypatch):
    # scan, wall and check carry arrays from the engine to the writer: no
    # PotentialResult or ExpansionTerm is built on the way
    built = []

    def counted(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        return __init__

    for cls in (v.PotentialResult, v.ExpansionTerm):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    v.potential_halfspace(v.AtomModel.two_level(), v.CONDUCTING_MIRROR, 1.0)  # a float z
    assert built == ["PotentialResult"]  # the count sees a row when one is built
    built.clear()
    wall = {"atom": ATOM, "materials": {"plate": PLATE},
            "geometry": {"kind": "halfspace", "material": "plate"},
            "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 12}}
    check = {"atom": ATOM, "materials": {"weak": WEAK},
             "check": {"material": "weak", "z": 1.0}}
    for command, doc, extra in (("scan", scan_doc(), ()), ("scan", two_plates_doc(), ()),
                                ("wall", wall, ()), ("check", check, ("--rel-tol", "1e-3"))):
        code, _ = run(tmp_path, command, doc, *extra)
        assert code == 0 and built == [], (command, built)


def test_wall_failed_search_is_not_no_wall(tmp_path, capsys):
    # a certifying call that cannot converge is a numerical failure, not an absent wall
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE},
        "geometry": {"kind": "halfspace", "material": "plate"},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 12},
        "quadrature": FAST_QUAD,
    }
    real = v.potential_multilayer
    calls = []

    def flaky(stacks, atom, spec, *, table, power):
        calls.append([stack.atom_position for stack in stacks])
        results = real(stacks, atom, spec, table=table, power=power)
        if len(calls) == 1:
            return results
        return [dataclasses.replace(r, row_converged=np.zeros_like(r.row_converged))
                for r in results]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("vdwlayers.cli.potential_multilayer", flaky)
        code, out = run(tmp_path, "wall", doc)
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: wall refinement: quadrature did not converge at z = " in err
    _, rows = read_rows(out / "wall_plate.csv")
    numeric = [r for r in rows if r["method"] == "numeric-scan"]
    assert numeric[0]["status"] == "failed"
    # the sidecar names the material, the method and the z that failed
    error = json.loads((out / "wall.meta.json").read_text())["error"]
    assert error == "plate: numeric-scan: " + err.strip().removeprefix("numerical failure: ")


def test_wall_coefficient_failure_keeps_the_other_materials(tmp_path, capsys,
                                                           first_material_fails):
    # one material's channels of the shared coefficient integral fail: its
    # row says so, the other material's file is still written, and the run
    # exits 3
    doc = {
        "atom": ATOM,
        "materials": {"bad": PLATE, "good": WEAK},
        "geometry": {"kind": "halfspace", "material": ["bad", "good"]},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": 8},
        "quadrature": FAST_QUAD,
    }
    first_material_fails(2)
    code, out = run(tmp_path, "wall", doc)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: quadrature for short-distance 1/z^3 coefficient "
                          "did not converge (error estimate ")
    _, rows = read_rows(out / "wall_bad.csv")
    assert [(r["method"], r["status"]) for r in rows if r["method"] != "numeric-scan"] == [
        ("coefficient-ratio", "failed")]
    _, rows = read_rows(out / "wall_good.csv")
    assert all(r["status"] != "failed" for r in rows)
    assert any(r["method"] == "coefficient-ratio" for r in rows)
    meta = json.loads((out / "wall.meta.json").read_text())
    assert meta["outputs"] == ["wall_bad.csv", "wall_good.csv"]
    assert meta["error"] == "bad: coefficient-ratio: " + err.strip().removeprefix(
        "numerical failure: ")


@pytest.mark.parametrize("grid", [
    {"z_min": 5.0, "z_max": 0.2},
    {"z_min": 1.0, "z_max": 1.0},
    {"z_min": 500.0},  # above the default z_max
])
def test_wall_rejects_reversed_grid(tmp_path, capsys, grid):
    doc = {
        "atom": ATOM,
        "materials": {"plate": PLATE},
        "geometry": {"kind": "halfspace", "material": "plate"},
        "wall": grid,
    }
    code, _ = run(tmp_path, "wall", doc)
    assert code == 2
    assert "config.wall: z_max must exceed z_min" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", [
    {"kind": "two-plates", "material": "plate", "separation": 4.0},
    {"kind": "multilayer", "atom_layer": 1, "layers": [
        {"material": "plate", "thickness": "inf"}, {"material": "vacuum", "thickness": 4.0},
        {"material": "plate", "thickness": "inf"}]},
], ids=["two-plates", "interior-multilayer"])
def test_wall_rejects_an_atom_between_two_walls(tmp_path, capsys, geometry):
    doc = {"atom": ATOM, "materials": {"plate": PLATE}, "geometry": geometry,
           "wall": {"z_min": 0.1, "z_max": 3.0, "samples": 8}}
    code, out = run(tmp_path, "wall", doc)
    assert code == 2
    assert "config.geometry" in capsys.readouterr().err
    assert not out.exists()


def test_wall_on_a_halfspace_written_as_a_multilayer(tmp_path):
    # the atom in either outer layer of (plate | vacuum) runs the one-channel
    # force of the halfspace kind: the numeric-scan row has the same bytes
    weak = {"electric": [{"plasma": 0.02, "transverse": 1.03}],
            "magnetic": [{"plasma": 2.0, "transverse": 1.0}]}
    doc = {"atom": ATOM, "materials": {"weak": weak},
           "geometry": {"kind": "halfspace", "material": "weak"},
           "wall": {"z_min": 1e-3, "z_max": 1.0, "samples": 16}, "quadrature": FAST_QUAD}

    def numeric_row(doc, name, fname):
        (tmp_path / name).mkdir()
        code, out = run(tmp_path / name, "wall", doc)
        assert code == 0
        lines = (out / fname).read_text().splitlines()
        row, = [line for line in lines if ",numeric-scan," in line]
        return row.split(",", 1)[1]  # after the series name

    expected = numeric_row(doc, "halfspace", "wall_weak.csv")
    assert expected.endswith(",ok")
    plate, gap = {"material": "weak", "thickness": "inf"}, {"material": "vacuum",
                                                          "thickness": "inf"}
    for layers, atom_layer in (([plate, gap], 1), ([gap, plate], 0)):
        doc["geometry"] = {"kind": "multilayer", "layers": layers, "atom_layer": atom_layer}
        assert numeric_row(doc, f"multilayer{atom_layer}", "wall_multilayer.csv") == expected


def test_wall_on_a_mirror_finds_no_wall(tmp_path):
    doc = {"atom": ATOM, "materials": {}, "geometry": {"kind": "mirror", "mirror": "conducting"},
           "wall": {"z_min": 0.01, "z_max": 10.0, "samples": 8}, "quadrature": FAST_QUAD}
    code, out = run(tmp_path, "wall", doc)
    assert code == 0
    _, rows = read_rows(out / "wall_mirror-conducting.csv")
    assert [(r["method"], r["status"]) for r in rows] == [("numeric-scan", "no-wall")]


def test_atom_whose_static_polarizability_overflows_is_a_config_error(tmp_path, capsys):
    # each transition's alpha(0) share is finite, their sum is not
    doc = scan_doc(atom={"transitions": [{"frequency": 1.0, "dipole_sq": 1e308}] * 2})
    code, out = run(tmp_path, "scan", doc)
    assert code == 2
    assert "config error" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("geometry, potential", [
    ({"kind": "mirror", "mirror": "permeable"},
     lambda atom, m, z: v.potential_halfspace(atom, v.PERMEABLE_MIRROR, z)),
    ({"kind": "halfspace", "material": "plate"}, v.potential_halfspace),
    ({"kind": "plate", "material": "plate", "thickness": 0.3},
     lambda atom, m, z: v.potential_plate(atom, m, 0.3, z)),
    ({"kind": "thin-plate", "material": "plate", "thickness": 0.01},
     lambda atom, m, z: v.potential_thin_plate(atom, m, 0.01, z)),
    ({"kind": "two-plates", "material": "plate", "separation": 4.0},
     lambda atom, m, z: v.potential_two_plates(atom, m, 4.0, z)),
], ids=["mirror", "halfspace", "plate", "thin-plate", "two-plates"])
def test_config_series_stack_is_the_potentials_stack(monkeypatch, geometry, potential):
    # the config and the potential_* wrappers lay out a one-medium kind alike
    from vdwlayers import potential as module

    cfg = parse_config(scan_doc(geometry=geometry))
    passed = []
    for target in ("potential_multilayer", "_wall_potentials"):  # two-plates: the latter
        monkeypatch.setattr(module, target, lambda stack, *args, **kwargs: passed.append(stack)
                            or [None])
    potential(cfg.atom, cfg.medium("plate"), 1.5)
    name, = cfg.geometry.materials
    assert passed == [cfg.build_stack(1.5, name)]


@pytest.mark.parametrize("kind, eps_max", [("thick", 1e160), ("thin", 1.7e308)])
def test_border_past_the_float_range_is_a_config_error(tmp_path, capsys, kind, eps_max):
    # thick: eps0 * mu0 overflows in the static bracket; thin: mu0 ~ 7/3 eps0 does
    doc = {"atom": ATOM, "materials": {},
           "border": {"plate_kind": kind, "eps_min": 1.0, "eps_max": eps_max, "points": 3,
                      "spacing": "log"}}
    code, out = run(tmp_path, "border", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: config.border:" in err and "overflows" in err
    assert not out.exists()


def test_resonance_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    huge = {"electric": [{"plasma": 1e200, "transverse": 1.0}]}
    code, out = run(tmp_path, "scan", scan_doc(materials={"plate": huge}))
    assert code == 2
    assert "config error: Resonance.plasma must be at most sqrt(DBL_MAX)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frequency, dipole_sq", [(1e10, 1e300), (1e-200, 1.0)])
def test_transition_whose_alpha0_overflows_is_a_config_error(tmp_path, capsys, frequency,
                                                             dipole_sq):
    atom = {"transitions": [{"frequency": frequency, "dipole_sq": dipole_sq}]}
    code, out = run(tmp_path, "scan", scan_doc(atom=atom))
    assert code == 2
    assert ("config error: Transition.frequency * Transition.dipole_sq / frequency^2, its "
            "alpha(0) share, must be finite") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps_min", [0.5, 0.0])
def test_border_rejects_eps_min_below_one(tmp_path, capsys, eps_min):
    doc = {"atom": ATOM, "materials": {},
           "border": {"plate_kind": "thick", "eps_min": eps_min, "eps_max": 10}}
    code, out = run(tmp_path, "border", doc)
    assert code == 2
    assert "config.border.eps_min" in capsys.readouterr().err
    assert not out.exists()


def test_check_command(tmp_path):
    doc = {
        "atom": ATOM,
        "materials": {"weak": WEAK},
        "check": {"material": "weak", "z": 1.0},
        "quadrature": FAST_QUAD,
    }
    code, out = run(tmp_path, "check", doc)
    assert code == 0
    report = json.loads((out / "check.json").read_text())
    assert report["first_order"]["residual"] < 0.01
    assert report["second_order"]["residual"] < 0.02


def test_check_sidecar_gives_each_sides_kernel_points(tmp_path):
    # the thick side's two terms and the stacked side's depth integrals are one
    # table each per step; the sidecar gives each side's kernel points
    doc = {"atom": ATOM, "materials": {"weak": WEAK}, "check": {"material": "weak", "z": 1.0}}
    code, out = run(tmp_path, "check", doc, "--rel-tol", "1e-3")
    assert code == 0
    meta = json.loads((out / "check.meta.json").read_text())
    cfg = parse_config(meta)
    report = v.additivity_check(cfg.atom, cfg.medium("weak"), 1.0, cfg.quadrature)
    assert meta["diagnostics"] == {"thick_kernel_points": report.thick_kernel_points,
                                   "stacked_kernel_points": report.stacked_kernel_points}
    assert report.thick_kernel_points > 0 and report.stacked_kernel_points > 0
    # the sidecar still replays as a config, to the same bytes
    rerun = tmp_path / "rerun"
    assert main(["check", "--config", str(out / "check.meta.json"), "--out", str(rerun)]) == 0
    for name in ("check.json", "check.meta.json"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


def test_check_nonconverged_exits_3(tmp_path, capsys):
    doc = {
        "atom": ATOM,
        "materials": {"weak": WEAK},
        "check": {"material": "weak", "z": 1.0},
        "quadrature": {"rel_tol_outer": 1e-14, "rel_tol_inner": 1e-15, "max_subdivisions": 1},
    }
    code, out = run(tmp_path, "check", doc)
    assert code == 3
    assert "first-order thick term at z=1.0" in capsys.readouterr().err
    assert not (out / "check.json").exists()
    meta = json.loads((out / "check.meta.json").read_text())
    assert "first-order thick term at z=1.0" in meta["error"]
    assert meta["outputs"] == []
    assert parse_config(meta) == parse_config(doc)  # the sidecar still replays as a config


def test_module_entry_point_exits_nonzero_on_missing_config(tmp_path):
    src = str(Path(v.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "vdwlayers.cli", "border",
         "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr


COLD_START = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import vdwlayers
from vdwlayers import cli
from vdwlayers.config import load_config

runs = json.loads(sys.argv[1])
load_config(runs[0][1])
codes = [cli.main([command, "--config", path, "--out", out, "--rel-tol", "1e-3"])
         for command, path, out in runs]
print(json.dumps({"codes": codes}))
"""


def test_cold_start_commands_never_import_scipy(tmp_path):
    # a fresh process, because this one has scipy loaded by other tests: every
    # command, the thick border included, runs where scipy cannot be imported
    multilayer = {"kind": "multilayer", "atom_layer": 1, "layers": [
        {"material": "plate", "thickness": "inf"}, {"material": "vacuum", "thickness": 5.0},
        {"material": "plate", "thickness": 0.5}, {"material": "vacuum", "thickness": "inf"}]}
    docs = {
        "scan": scan_doc(scan={"z_min": 0.5, "z_max": 2.0, "points": 3}),
        "scan-multilayer": scan_doc(geometry=multilayer,
                                    scan={"z_min": 1.0, "z_max": 4.0, "points": 3}),
        "wall": {"atom": ATOM, "materials": {"weak": WEAK},
                 "geometry": {"kind": "halfspace", "material": "weak"},
                 "wall": {"z_min": 1e-3, "z_max": 1.0, "samples": 8}},
        "coeffs": {"atom": ATOM, "materials": {"plate": PLATE},
                   "coeffs": {"materials": ["plate"], "thickness": 1.0}},
        "check": {"atom": ATOM, "materials": {"weak": WEAK},
                  "check": {"material": "weak", "z": 1.0}},
        "border": {"atom": ATOM, "materials": {},
                   "border": {"plate_kind": "thin", "eps_min": 1.0, "eps_max": 4.0,
                              "points": 3}},
        "border-thick": {"atom": ATOM, "materials": {},
                         "border": {"plate_kind": "thick", "eps_min": 2.0, "eps_max": 4.0,
                                    "points": 2}},
    }
    runs = [(name.split("-")[0], str(write_config(tmp_path, doc, f"{name}.json")),
             str(tmp_path / name)) for name, doc in docs.items()]
    src = str(Path(v.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"codes": [0] * len(runs)}
    assert (tmp_path / "border-thick" / "border_thick.csv").exists()


def test_main_builds_its_parser_once(tmp_path):
    """Two main() calls share one parser, and the first call's options do not leak."""
    doc = {"atom": ATOM, "materials": {},
           "border": {"plate_kind": "thin", "eps_min": 1.0, "eps_max": 4.0, "points": 3}}
    cfg = str(write_config(tmp_path, doc))
    first, second = tmp_path / "first", tmp_path / "second"
    cli.build_parser.cache_clear()
    assert main(["border", "--config", cfg, "--out", str(first), "--format", "json"]) == 0
    assert main(["border", "--config", cfg, "--out", str(second)]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert sorted(p.name for p in first.iterdir()) == ["border.meta.json", "border_thin.json"]
    assert sorted(p.name for p in second.iterdir()) == ["border.meta.json", "border_thin.csv"]


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

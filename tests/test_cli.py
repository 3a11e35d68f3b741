import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vdwlayers as v
from vdwlayers.cli import main
from vdwlayers.config import parse_config

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


def test_missing_section(tmp_path, capsys):
    doc = scan_doc()
    del doc["scan"]
    code, _ = run(tmp_path, "scan", doc)
    assert code == 2


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
    out2 = tmp_path / "rerun"
    assert main(["scan", "--config", str(sidecar), "--out", str(out2)]) == 0
    assert (out2 / "scan_plate.csv").read_bytes() == first


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


def test_scan_two_plates_emits_reference_column(tmp_path):
    doc = scan_doc()
    doc["geometry"] = {"kind": "two-plates", "material": "plate", "separation": 6.0}
    doc["scan"] = {"z_min": 2.0, "z_max": 4.0, "points": 3, "spacing": "linear"}
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
    for row in rows:
        res = potential(cfg.atom, cfg.medium("plate"), 0.01, float(row["z_A"]), cfg.quadrature)
        assert float(row["U"]) == res.value
        assert float(row["U_left"]) == res.left
        assert float(row["U_right"]) == res.right


def test_scan_mirror_geometry(tmp_path):
    doc = scan_doc()
    doc["geometry"] = {"kind": "mirror", "mirror": "conducting"}
    code, out = run(tmp_path, "scan", doc)
    assert code == 0
    _, rows = read_rows(out / "scan_mirror-conducting.csv")
    assert all(float(r["U"]) < 0.0 for r in rows)


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


def test_quad_mode_flag_recorded_and_consistent(tmp_path):
    doc = scan_doc()
    cfg = write_config(tmp_path, doc)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["scan", "--config", str(cfg), "--out", str(out_a),
                 "--quad-mode", "nonretarded"]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out_b),
                 "--quad-mode", "direct"]) == 0
    meta = json.loads((out_a / "scan.meta.json").read_text())
    assert meta["quadrature"]["mode"] == "nonretarded"
    _, rows_a = read_rows(out_a / "scan_plate.csv")
    _, rows_b = read_rows(out_b / "scan_plate.csv")
    for ra, rb in zip(rows_a, rows_b):
        assert float(ra["U"]) == pytest.approx(float(rb["U"]), rel=1e-4)


def test_scan_json_format(tmp_path):
    code, out = run(tmp_path, "scan", scan_doc(), "--format", "json")
    assert code == 0
    doc = json.loads((out / "scan_plate.json").read_text())
    assert doc["columns"][0] == "z_A"
    assert len(doc["rows"]) == 4


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
    _, rows = read_rows(out / "wall_weak.csv")
    methods = {r["method"] for r in rows}
    assert {"numeric-scan", "coefficient-ratio", "two-level-closed-form"} <= methods
    z_by_method = {r["method"]: float(r["z_max"]) for r in rows}
    assert z_by_method["numeric-scan"] == pytest.approx(
        z_by_method["two-level-closed-form"], rel=0.15
    )


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


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

"""Command-line front end: scan, coeffs, border, wall and check subcommands.

Each command reads a strict JSON config (schema: see :mod:`vdwlayers.config`),
computes, and writes plot-ready data files plus a provenance sidecar
``<command>.meta.json`` that embeds the exact configuration; running the same
command with the sidecar as the config reproduces the data files byte for
byte.  ``scan`` distributes its points over a process pool and re-serializes
them in input order, so parallel runs stay deterministic; the other commands
run in one process (``border`` solves all its points as one batch), so
``--threads`` does not change their output.

Exit codes: 0 success, 2 configuration error, 3 partial numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .asymptotics import (
    NoWallError,
    locate_wall,
    border_curve,
    thick_coefficients,
    thin_coefficients,
    wall_estimate,
)
from .config import ConfigError, RunConfig, load_config, with_overrides
from .materials import PerfectMirror
from .perturbation import additivity_check
from .potential import (
    PotentialResult,
    potential_halfspace,
    potential_mirror,
    potential_multilayer,
    potential_plate,
    potential_thin_plate,
    potential_two_plates,
)
from .quadrature import MODES

__all__ = ["main", "entry"]


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _write_table(path: Path, columns: list[str], rows: list[tuple], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(c) for c in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = {"columns": columns, "rows": [[None if c is None else c for c in row]
                                            for row in rows]}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_sidecar(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "outputs": sorted(outputs),
        "quadrature": {
            "rel_tol_inner": cfg.quadrature.rel_tol_inner,
            "rel_tol_outer": cfg.quadrature.rel_tol_outer,
            "abs_tol": cfg.quadrature.abs_tol,
            "max_subdivisions": cfg.quadrature.max_subdivisions,
            "mode": cfg.quadrature.mode,
        },
    }
    (out_dir / f"{command}.meta.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    )


def _json_default(obj):
    if obj == math.inf:
        return "inf"
    raise TypeError(f"not JSON serializable: {obj!r}")


def _scan_series(cfg: RunConfig) -> list[str]:
    geo = cfg.geometry
    if geo.kind == "mirror":
        return [f"mirror-{geo.mirror}"]
    if geo.kind == "multilayer":
        return ["multilayer"]
    return list(geo.materials)


def _potential(cfg: RunConfig, name: str, z: float) -> PotentialResult:
    """Potential at z for the configured geometry and the series ``name``."""
    geo = cfg.geometry
    atom = cfg.atom
    spec = cfg.quadrature
    if geo.kind == "mirror":
        return potential_mirror(atom, z, geo.mirror, spec)
    if geo.kind == "multilayer":
        return potential_multilayer(cfg.build_stack(z), atom, spec)
    material = cfg.medium(name)
    if geo.kind == "halfspace":
        return potential_halfspace(atom, material, z, spec)
    if geo.kind == "plate":
        return potential_plate(atom, material, geo.thickness, z, spec)
    if geo.kind == "thin-plate":
        return potential_thin_plate(atom, material, geo.thickness, z, spec)
    return potential_two_plates(atom, material, geo.separation, z, spec)


def _scan_point(task) -> tuple:
    cfg, name, z = task
    res = _potential(cfg, name, z)
    no_reflect = None
    if cfg.geometry.kind == "two-plates":
        no_reflect = potential_two_plates(cfg.atom, cfg.medium(name), cfg.geometry.separation,
                                          z, cfg.quadrature, multiple_reflections=False).value
    return (z, res, no_reflect)


def _pool_map(func, tasks, threads: int | None):
    threads = os.cpu_count() if threads is None else threads
    if threads <= 1 or len(tasks) <= 1:
        return [func(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(tasks) // (4 * threads))
        return list(pool.map(func, tasks, chunksize=chunk))


def _validate_scan_geometry(cfg: RunConfig) -> None:
    geo = cfg.geometry
    if geo is None:
        raise ConfigError("scan needs a geometry section")
    if cfg.scan is None:
        raise ConfigError("scan needs a scan section")
    if geo.kind == "two-plates" and cfg.scan.hi >= geo.separation:
        raise ConfigError("scan.z_max must stay below the plate separation")
    if geo.kind == "multilayer":
        try:
            cfg.build_stack(cfg.scan.lo)
            cfg.build_stack(cfg.scan.hi)
        except ValueError as exc:
            raise ConfigError(f"config.geometry: {exc}") from exc


def cmd_scan(cfg: RunConfig, args) -> int:
    _validate_scan_geometry(cfg)
    zs = [float(z) for z in cfg.scan.values()]
    series = _scan_series(cfg)
    tasks = [(cfg, name, z) for name in series for z in zs]
    results = _pool_map(_scan_point, tasks, args.threads)

    two_plates = cfg.geometry.kind == "two-plates"
    columns = ["z_A", "U", "err", "U_left", "U_right"]
    if two_plates:
        columns.append("U_noreflect")
    columns.append("converged")

    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    all_ok = True
    ext = "csv" if args.format == "csv" else "json"
    for i, name in enumerate(series):
        rows = []
        for (z, res, noref) in results[i * len(zs):(i + 1) * len(zs)]:
            row = [z, res.value, res.error, res.left, res.right]
            if two_plates:
                row.append(noref)
            row.append(res.converged)
            all_ok = all_ok and res.converged
            rows.append(tuple(row))
        fname = f"scan_{_safe_label(name)}.{ext}"
        _write_table(out_dir / fname, columns, rows, args.format)
        outputs.append(fname)
    _write_sidecar(out_dir, "scan", cfg, outputs)
    return 0 if all_ok else 3


def cmd_coeffs(cfg: RunConfig, args) -> int:
    section = cfg.coeffs
    if section is None:
        raise ConfigError("coeffs needs a coeffs section")
    rows = []
    for name in section.materials:
        material = cfg.medium(name)
        thick = thick_coefficients(cfg.atom, material, cfg.quadrature)
        if isinstance(material, PerfectMirror):
            rows.append((name, thick.c4, thick.c3, thick.c1,
                         None, None, None, section.thickness, thick.method, "undefined"))
        else:
            thin = thin_coefficients(cfg.atom, material, section.thickness, cfg.quadrature)
            rows.append((name, thick.c4, thick.c3, thick.c1,
                         thin.d5, thin.d4, thin.d2, section.thickness,
                         thick.method, thin.method))
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "json"
    fname = f"coeffs.{ext}"
    _write_table(out_dir / fname,
                 ["material", "c4", "c3", "c1", "d5", "d4", "d2", "thickness",
                  "thick_method", "thin_method"],
                 rows, args.format)
    _write_sidecar(out_dir, "coeffs", cfg, [fname])
    return 0


def cmd_border(cfg: RunConfig, args) -> int:
    if cfg.border is None or cfg.border_kind is None:
        raise ConfigError("border needs a border section")
    eps_values = [float(e) for e in cfg.border.values()]
    points = border_curve(cfg.border_kind, eps_values, cfg.quadrature)
    rows = [
        (p.eps0, p.mu0, "ok" if p.mu0 is not None else "no-root", p.method)
        for p in points
    ]
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "json"
    fname = f"border_{cfg.border_kind}.{ext}"
    _write_table(out_dir / fname, ["eps0", "mu0", "status", "method"], rows, args.format)
    _write_sidecar(out_dir, "border", cfg, [fname])
    return 0


def cmd_wall(cfg: RunConfig, args) -> int:
    geo = cfg.geometry
    if geo is None or geo.kind not in ("halfspace", "plate", "thin-plate"):
        raise ConfigError("wall needs a halfspace, plate or thin-plate geometry")
    grid = cfg.wall
    z_lo, z_hi, samples = (grid.lo, grid.hi, grid.points) if grid else (1e-3, 1e2, 60)

    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    all_ok = True
    ext = "csv" if args.format == "csv" else "json"
    for name in geo.materials:
        material = cfg.medium(name)
        rows = []
        try:
            numeric = locate_wall(lambda z: _potential(cfg, name, z),
                                  z_lo=z_lo, z_hi=z_hi, samples=samples)
        except RuntimeError:
            numeric = None
            all_ok = False
        if numeric is None:
            rows.append((name, "numeric-scan", None, None, None, "no-wall"))
        else:
            rows.append((name, numeric.method, numeric.z_max, numeric.u_max,
                         numeric.consistency, "ok"))

        if geo.kind in ("halfspace", "thin-plate") and not isinstance(material, PerfectMirror):
            kind = "thick" if geo.kind == "halfspace" else "thin"
            try:
                for est in wall_estimate(kind, cfg.atom, material, geo.thickness,
                                         cfg.quadrature):
                    rows.append((name, est.method, est.z_max, est.u_max,
                                 est.consistency, "ok"))
            except NoWallError:
                rows.append((name, "coefficient-ratio", None, None, None, "no-wall"))

        fname = f"wall_{_safe_label(name)}.{ext}"
        _write_table(out_dir / fname,
                     ["material", "method", "z_max", "U_max", "consistency", "status"],
                     rows, args.format)
        outputs.append(fname)
    _write_sidecar(out_dir, "wall", cfg, outputs)
    return 0 if all_ok else 3


def cmd_check(cfg: RunConfig, args) -> int:
    if cfg.check is None:
        raise ConfigError("check needs a check section")
    material = cfg.medium(cfg.check.material)
    if isinstance(material, PerfectMirror):
        raise ConfigError("config.check.material: additivity check needs a dispersive material")
    report = additivity_check(cfg.atom, material, cfg.check.z, cfg.quadrature)
    doc = {
        "material": cfg.check.material,
        "z": report.z,
        "first_order": {
            "thick": report.first_order_thick,
            "stacked_thin_plates": report.first_order_stacked,
            "residual": report.first_order_residual,
        },
        "second_order": {
            "thick": report.second_order_thick,
            "stacked_thin_plates": report.second_order_single_term,
            "pair_correlation": report.second_order_correlation_term,
            "stacked_total": report.second_order_stacked,
            "residual": report.second_order_residual,
        },
        "tolerances": {
            "rel_tol_inner": cfg.quadrature.rel_tol_inner,
            "rel_tol_outer": cfg.quadrature.rel_tol_outer,
        },
    }
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "check.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _write_sidecar(out_dir, "check", cfg, ["check.json"])
    return 0


_COMMANDS = {
    "scan": cmd_scan,
    "coeffs": cmd_coeffs,
    "border": cmd_border,
    "wall": cmd_wall,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdwlayers",
        description="Ground-state van der Waals potentials in planar magnetodielectric "
                    "multilayers (reduced units).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "scan": "potential vs atom position for the configured geometry",
        "coeffs": "asymptotic power-law coefficients per material",
        "border": "attraction/repulsion border curve in the static response plane",
        "wall": "repulsive wall location: numeric scan plus analytic estimates",
        "check": "first- and second-order additivity identity report",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, type=Path, help="JSON config (or sidecar)")
        sp.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        sp.add_argument("--rel-tol", type=float, default=None,
                        help="outer relative tolerance (inner is set 10x tighter)")
        sp.add_argument("--quad-mode", choices=list(MODES), default=None,
                        help="force a substitution mode")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker processes for scan (default: all CPUs)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="data file format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, args.rel_tol, args.quad_mode)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

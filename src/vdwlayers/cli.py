"""Command-line front end: scan, coeffs, border, wall and check subcommands.

Each command reads a strict JSON config (schema: see :mod:`vdwlayers.config`),
computes, and writes plot-ready data files plus a provenance sidecar
``<command>.meta.json`` that embeds the exact configuration; running the same
command with the sidecar as the config reproduces the data files byte for
byte.  Every command runs in one process: ``scan`` computes each series with
one potential call over its z grid, ``wall`` searches every series at once
(each series' wall one channel of one table: one scan call, one root search
over every bracket and one certifying call), ``coeffs`` and the ``wall``
estimates integrate every material in one 1-D call, and ``border`` solves all
its points as one batch.  A failure of one material flags only its rows.
``--threads`` is accepted for compatibility and starts no workers.

Exit codes: 0 success, 2 configuration error, 3 partial numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
# thick_coefficients and thin_coefficients are unused here but stay importable:
# perfbench's asymptotics.coeffs probe wraps cli.thick_coefficients and
# cli.thin_coefficients.
from .asymptotics import (  # noqa: F401
    NoWallError,
    locate_wall,
    border_curve,
    plate_coefficients,
    thick_coefficients,
    thin_coefficients,
    wall_estimate,
)
from .config import ConfigError, RunConfig, _safe_label, load_config, with_overrides
from .materials import PerfectMirror
from .perturbation import additivity_check
from .potential import _wall_potentials, potential_multilayer
from .potential import potential_halfspace  # noqa: F401  perfbench's potential probe wraps it
from .quadrature import NodeTable

__all__ = ["main", "entry"]


# A CSV cell's text by its exact type; _write_table turns a numpy scalar into
# the Python scalar of the same value first
_CSV_CELL = {
    float: "{:.17g}".format,
    int: str,
    str: str,
    bool: lambda c: "1" if c else "0",
    type(None): lambda c: "nan",
}


def _json_cell(c):
    """A float that is not finite as the text the CSV writes ("inf", "-inf", "nan")."""
    return c if not isinstance(c, float) or math.isfinite(c) else f"{c:.17g}"


def _write_table(path: Path, columns: list[str], rows: list[tuple], fmt: str) -> None:
    rows = [[c.item() if isinstance(c, np.generic) else c for c in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_CSV_CELL[type(c)](c) for c in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:  # strict JSON: no bare Infinity or NaN
        doc = {"columns": columns, "rows": [[_json_cell(c) for c in row] for row in rows]}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


@functools.cache
def _library_versions() -> dict:
    """Python, numpy and scipy versions, read without importing scipy; None if absent."""
    import platform
    from importlib import metadata  # slow to import and to query: once per process

    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def _write_sidecar(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str],
                   error: str | None = None, warned: list[str] = (),
                   diagnostics: dict | None = None) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "versions": _library_versions(),
        "config": cfg.raw,
        "outputs": sorted(outputs),
        "quadrature": dataclasses.asdict(cfg.quadrature),
    }
    if error is not None:
        doc["error"] = error
    if warned:
        doc["warnings"] = warned
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    (out_dir / f"{command}.meta.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


@contextlib.contextmanager
def _keeping_warnings(warned: list[str], name: str):
    """Record the block's warnings, re-emit each through the caller's filters, and append
    "<name>: <message>" to ``warned``: the sidecar keeps warnings the caller filters out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        warned.append(f"{name}: {w.message}")


def cmd_scan(cfg: RunConfig, args) -> int:
    geo = cfg.geometry
    if geo is None:
        raise ConfigError("scan needs a geometry section")
    if cfg.scan is None:
        raise ConfigError("scan needs a scan section")
    for z in (cfg.scan.lo, cfg.scan.hi):  # every series has the same layout
        cfg.build_stack(z, geo.materials[0])  # a ConfigError if its atom layer cannot hold z
    zs = cfg.scan.values()
    # two plates: also U_noreflect, the walls' bare terms (D forced to one), of the same table
    noreflect = ["U_noreflect"] if geo.kind == "two-plates" else []
    columns = ["z_A", "U", "err", "U_left", "U_right", *noreflect, "converged"]

    args.out.mkdir(parents=True, exist_ok=True)
    outputs = []
    warned = []  # "<series>: <message>" per warning, for the sidecar
    diagnostics = {}  # per series: the kernel points of its one table
    all_ok = True
    for name in geo.materials:
        stack = cfg.build_stack(zs, name)
        with _keeping_warnings(warned, name):
            batches = (_wall_potentials(stack, cfg.atom, cfg.quadrature, (True, False))
                       if noreflect else [potential_multilayer(stack, cfg.atom, cfg.quadrature)])
        b = batches[0]
        diagnostics[name] = {"kernel_points": sum(batch.evaluations for batch in batches)}
        cells = [zs, b.values, b.errors, b.left, b.right, *(batch.values for batch in batches[1:])]
        converged = np.logical_and.reduce([batch.row_converged for batch in batches])
        all_ok = all_ok and bool(converged.all())
        rows = list(zip(*(cell.tolist() for cell in [*cells, converged])))
        fname = f"scan_{_safe_label(name)}.{args.format}"
        _write_table(args.out / fname, columns, rows, args.format)
        outputs.append(fname)
    _write_sidecar(args.out, "scan", cfg, outputs, warned=warned, diagnostics=diagnostics)
    return 0 if all_ok else 3


def cmd_coeffs(cfg: RunConfig, args) -> int:
    section = cfg.coeffs
    if section is None:
        raise ConfigError("coeffs needs a coeffs section")
    rows = []
    failures = []  # "<material>: <message>" per failure, for the sidecar
    # every dispersive material's integrals are channels of one 1-D call
    outcomes = plate_coefficients(cfg.atom, [cfg.medium(name) for name in section.materials],
                                  section.thickness, cfg.quadrature)
    for name, outcome in zip(section.materials, outcomes):
        if isinstance(outcome, RuntimeError):
            print(f"numerical failure: {outcome}", file=sys.stderr)
            failures.append(f"{name}: {outcome}")
            rows.append((name, None, None, None, None, None, None, section.thickness,
                         "failed", "failed"))
        else:
            thick, thin = outcome
            thin_row = ((None, None, None) if thin is None  # a perfect mirror
                        else (thin.d5, thin.d4, thin.d2))
            rows.append((name, thick.c4, thick.c3, thick.c1, *thin_row, section.thickness,
                         thick.method, "undefined" if thin is None else thin.method))
    args.out.mkdir(parents=True, exist_ok=True)
    fname = f"coeffs.{args.format}"
    _write_table(args.out / fname,
                 ["material", "c4", "c3", "c1", "d5", "d4", "d2", "thickness",
                  "thick_method", "thin_method"],
                 rows, args.format)
    _write_sidecar(args.out, "coeffs", cfg, [fname], error="\n".join(failures) or None)
    return 3 if failures else 0


def cmd_border(cfg: RunConfig, args) -> int:
    if cfg.border is None or cfg.border_kind is None:
        raise ConfigError("border needs a border section")
    try:
        points = border_curve(cfg.border_kind, cfg.border.values(), cfg.quadrature)
    except ValueError as exc:  # an eps0 grid past the float range
        raise ConfigError(f"config.border: {exc}") from exc
    rows = [(p.eps0, p.mu0, "ok", p.method) for p in points]
    args.out.mkdir(parents=True, exist_ok=True)
    fname = f"border_{cfg.border_kind}.{args.format}"
    _write_table(args.out / fname, ["eps0", "mu0", "status", "method"], rows, args.format)
    _write_sidecar(args.out, "border", cfg, [fname])
    return 0


def cmd_wall(cfg: RunConfig, args) -> int:
    geo = cfg.geometry
    if geo is None:
        raise ConfigError("wall needs a geometry section")
    grid = cfg.wall
    if len(cfg.build_stack(grid.lo, geo.materials[0]).walls) != 1:  # the same in every series
        raise ConfigError("config.geometry: wall needs an atom in an outer layer (one wall)")
    names = geo.materials

    args.out.mkdir(parents=True, exist_ok=True)
    outputs = []
    failures = []  # "<material>: <method>: <message>" per failure, for the sidecar
    warned = []  # "<materials>: <message>" per warning, for the sidecar
    diagnostics = {}  # per material: kernel points of the scan and the certifying call

    def failed(name, method, exc):
        print(f"numerical failure: {exc}", file=sys.stderr)
        failures.append(f"{name}: {method}: {exc}")
        return (name, method, None, None, None, None, "failed")

    # one table for every series, one channel each: the scan fills it, the
    # forces' roots are read from its nodes, and the certifying call at the
    # roots computes only what its rows add
    table = NodeTable()
    points = []  # per potential call (the scan, then the certifying one): each series' share

    def potential(z, power=0):
        z = np.broadcast_to(z, (len(names), np.shape(z)[-1]))  # a 1-D z is every series'
        stacks = [cfg.build_stack(zs, name) for zs, name in zip(z, names)]
        batches = potential_multilayer(stacks, cfg.atom, cfg.quadrature, table=table,
                                       power=power)
        points.append([batch.evaluations for batch in batches])
        return batches

    # the analytic estimates, of every dispersive half-space or thin-plate medium
    plate_kind = {"halfspace": "thick", "thin-plate": "thin"}.get(geo.kind)
    dispersive = [name for name in names
                  if plate_kind and not isinstance(cfg.medium(name), PerfectMirror)]
    thickness = geo.series[names[0]][1].thickness if plate_kind == "thin" else None
    with _keeping_warnings(warned, ", ".join(names)):
        numeric = locate_wall(potential, z_lo=grid.lo, z_hi=grid.hi, samples=grid.points,
                              force=functools.partial(table.sums, power=1))
        estimates = dict(zip(dispersive, wall_estimate(
            plate_kind, cfg.atom, [cfg.medium(name) for name in dispersive], thickness,
            cfg.quadrature))) if dispersive else {}

    for c, name in enumerate(names):
        found = numeric[c]
        if isinstance(found, RuntimeError):
            rows = [failed(name, "numeric-scan", found)]
        elif found is None:
            rows = [(name, "numeric-scan", None, None, None, None, "no-wall")]
        else:
            rows = [(name, found.method, found.z_max, found.z_err, found.u_max,
                     found.consistency, "ok")]
        diagnostics[name] = {"scan_kernel_points": points[0][c],
                             "certify_kernel_points": sum(p[c] for p in points[1:]),
                             "z_err": getattr(found, "z_err", None),
                             "force": getattr(found, "force", None)}
        outcome = estimates.get(name, [])
        if isinstance(outcome, NoWallError):  # a RuntimeError too: an absent wall, not a failure
            rows.append((name, "coefficient-ratio", None, None, None, None, "no-wall"))
        elif isinstance(outcome, RuntimeError):
            rows.append(failed(name, "coefficient-ratio", outcome))
        else:
            rows.extend((name, est.method, est.z_max, est.z_err, est.u_max, est.consistency, "ok")
                        for est in outcome)

        fname = f"wall_{_safe_label(name)}.{args.format}"
        _write_table(args.out / fname,
                     ["material", "method", "z_max", "z_err", "U_max", "consistency", "status"],
                     rows, args.format)
        outputs.append(fname)
    _write_sidecar(args.out, "wall", cfg, outputs, error="\n".join(failures) or None,
                   warned=warned, diagnostics=diagnostics)
    return 3 if failures else 0


def cmd_check(cfg: RunConfig, args) -> int:
    if cfg.check is None:
        raise ConfigError("check needs a check section")
    material = cfg.medium(cfg.check.material)
    if isinstance(material, PerfectMirror):
        raise ConfigError("config.check.material: additivity check needs a dispersive material")
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        report = additivity_check(cfg.atom, material, cfg.check.z, cfg.quadrature)
    except RuntimeError as exc:  # the sidecar names the failing term and z
        _write_sidecar(args.out, "check", cfg, [], error=str(exc))
        raise
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
    (args.out / "check.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    # the kernel points of each side's table
    diagnostics = {"thick_kernel_points": report.thick_kernel_points,
                   "stacked_kernel_points": report.stacked_kernel_points}
    _write_sidecar(args.out, "check", cfg, ["check.json"], diagnostics=diagnostics)
    return 0


_COMMANDS = {
    "scan": cmd_scan,
    "coeffs": cmd_coeffs,
    "border": cmd_border,
    "wall": cmd_wall,
    "check": cmd_check,
}


@functools.cache  # built once per process: building costs ten times a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdwlayers",
        description="Ground-state van der Waals potentials in planar magnetodielectric "
                    "multilayers (reduced units).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)  # every command's options, added once
    common.add_argument("--config", required=True, type=Path, help="JSON config (or sidecar)")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--rel-tol", type=float, default=None,
                        help="outer relative tolerance (inner is set 10x tighter)")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; starts no workers")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="data file format")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "scan": "potential vs atom position for the configured geometry",
        "coeffs": "asymptotic power-law coefficients per material",
        "border": "attraction/repulsion border curve in the static response plane",
        "wall": "repulsive wall location: numeric scan plus analytic estimates",
        "check": "first- and second-order additivity identity report",
    }
    for name, help_text in helps.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, args.rel_tol)
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

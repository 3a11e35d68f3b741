"""Correctness gate: row accounting for each CLI step and tight-tolerance references.

A row fails when the CLI flags it (not converged, no wall, no root), when its
command exits non-zero, or when the reference check rejects it.  References
are recomputed through the library at 100x tighter quadrature tolerances on
a seeded subsample of rows, and a row passes when

    |x - x_ref| <= max(10 * rel_tol_outer * |x_ref|, 10 * err_ref).

Half-space potentials are also checked, under the same rule with err_ref = 0,
against an independent scipy reference (see reference.py), which catches
defects that the library's default and tight paths share.

The wall position is the exception: its accuracy is set by the golden-section
tolerance of ``locate_wall`` (1e-4 relative), not by the quadrature, so it is
compared against the vertex of a parabola through three tight potentials at
10x that tolerance.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from pathlib import Path

import reference

WALL_POSITION_REL_TOL = 1e-4  # locate_wall's default, which the CLI uses
WALL_PROBE_STEP = 0.02  # log-spacing of the three reference potentials
HALFSPACE_SAMPLES = 3  # rows recomputed per run
MULTILAYER_SAMPLES = 2
BORDER_SAMPLES = 5


@dataclasses.dataclass
class Rows:
    attempted: int = 0
    failed: list = dataclasses.field(default_factory=list)

    def add(self, other: "Rows") -> None:
        self.attempted += other.attempted
        self.failed.extend(other.failed)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text not in ("", "nan") else math.nan


def step_rows(command: str, out_dir: Path, exit_code: int) -> Rows:
    """Count the rows one CLI step produced and the ones it flagged as failed."""
    rows = Rows()
    flagged = []
    if command == "check":
        path = out_dir / "check.json"
        if path.exists():
            doc = json.loads(path.read_text())
            for order in ("first_order", "second_order"):
                rows.attempted += 1
                if not all(math.isfinite(x) for x in doc[order].values()):
                    flagged.append({"file": path.name, "row": order, "why": "non-finite"})
    else:
        for path in sorted(out_dir.glob("*.csv")):
            for i, row in enumerate(_read_csv(path)):
                rows.attempted += 1
                if command == "scan" and row["converged"] != "1":
                    flagged.append({"file": path.name, "row": i, "why": "not converged"})
                elif command in ("wall", "border") and row["status"] != "ok":
                    flagged.append({"file": path.name, "row": i, "why": row["status"]})
                elif command == "coeffs" and not all(
                        math.isfinite(_num(row[k])) for k in ("c4", "c3", "c1", "d5", "d4", "d2")):
                    flagged.append({"file": path.name, "row": i, "why": "non-finite"})
    if exit_code != 0:
        flagged.append({"file": command, "row": None, "why": f"exit code {exit_code}"})
        rows.attempted = max(rows.attempted, 1)
    rows.failed = flagged
    return rows


def tight(spec):
    return dataclasses.replace(spec, rel_tol_inner=spec.rel_tol_inner / 100.0,
                               rel_tol_outer=spec.rel_tol_outer / 100.0)


class Gate:
    """Checks one workload's outputs against tight library references."""

    def __init__(self, seed: int, workload: str) -> None:
        self.rng = random.Random(f"gate:{workload}:{seed}")
        self.checked = 0
        self.failures: list[dict] = []

    def compare(self, where: str, value: float, ref: float, rel_tol: float,
                err_ref: float = 0.0) -> None:
        self.checked += 1
        tol = max(10.0 * rel_tol * abs(ref), 10.0 * err_ref)
        if not abs(value - ref) <= tol:
            self.failures.append({"row": where, "value": value, "ref": ref, "tol": tol})

    def _sample(self, rows: list, k: int) -> list:
        picks = sorted(self.rng.sample(range(len(rows)), min(k, len(rows))))
        return [(i, rows[i]) for i in picks]

    def step(self, command: str, cfg, out_dir: Path) -> None:
        getattr(self, f"_{command}")(cfg, out_dir)

    def _scan(self, cfg, out_dir: Path) -> None:
        from vdwlayers import potential_halfspace, potential_multilayer

        geo = cfg.geometry
        ref_spec = tight(cfg.quadrature)
        names = ["multilayer"] if geo.kind == "multilayer" else list(geo.materials)
        k = MULTILAYER_SAMPLES if geo.kind == "multilayer" else HALFSPACE_SAMPLES
        for name in names:
            path = out_dir / f"scan_{name}.csv"
            for i, row in self._sample(_read_csv(path), k):
                z = float(row["z_A"])
                value = float(row["U"])
                if geo.kind == "multilayer":
                    ref = potential_multilayer(cfg.build_stack(z), cfg.atom, ref_spec)
                else:
                    ref = potential_halfspace(cfg.atom, cfg.medium(name), z, ref_spec)
                    self._independent(f"{path.name}[{i}] U", value, cfg, name, z)
                self.compare(f"{path.name}[{i}] U", value, ref.value,
                             cfg.quadrature.rel_tol_outer, ref.error)

    def _independent(self, where: str, value: float, cfg, name: str, z: float) -> None:
        ref = reference.halfspace_potential(cfg.raw["atom"], cfg.raw["materials"][name], z)
        self.compare(f"{where} (scipy reference)", value, ref, cfg.quadrature.rel_tol_outer)

    def _wall(self, cfg, out_dir: Path) -> None:
        from vdwlayers import potential_halfspace, wall_estimate

        rel = cfg.quadrature.rel_tol_outer
        ref_spec = tight(cfg.quadrature)
        for name in cfg.geometry.materials:
            path = out_dir / f"wall_{name}.csv"
            material = cfg.medium(name)
            estimates = {e.method: e for e in wall_estimate("thick", cfg.atom, material,
                                                            None, ref_spec)}
            for row in _read_csv(path):
                where = f"{path.name}[{row['method']}]"
                if row["status"] != "ok":
                    continue  # already counted as a failed row
                z, u = float(row["z_max"]), float(row["U_max"])
                if row["method"] != "numeric-scan":
                    est = estimates[row["method"]]
                    self.compare(f"{where} z_max", z, est.z_max, rel)
                    self.compare(f"{where} U_max", u, est.u_max, rel)
                    continue
                h = WALL_PROBE_STEP
                lo, mid, hi = (potential_halfspace(cfg.atom, material, z * math.exp(s), ref_spec)
                               for s in (-h, 0.0, h))
                curv = lo.value - 2.0 * mid.value + hi.value
                self.checked += 1
                if not curv < 0.0:
                    self.failures.append({"row": f"{where} z_max", "value": z,
                                          "why": "reference potential is not at a maximum"})
                else:
                    z_ref = z * math.exp(h * (lo.value - hi.value) / (2.0 * curv))
                    self.compare(f"{where} z_max", z, z_ref, WALL_POSITION_REL_TOL)
                self.compare(f"{where} U_max", u, mid.value, rel, mid.error)
                self._independent(f"{where} U_max", u, cfg, name, z)

    def _coeffs(self, cfg, out_dir: Path) -> None:
        from vdwlayers import thick_coefficients, thin_coefficients

        rel = cfg.quadrature.rel_tol_outer
        ref_spec = tight(cfg.quadrature)
        for row in _read_csv(out_dir / "coeffs.csv"):
            material = cfg.medium(row["material"])
            thick = thick_coefficients(cfg.atom, material, ref_spec)
            thin = thin_coefficients(cfg.atom, material, float(row["thickness"]), ref_spec)
            refs = {"c4": thick.c4, "c3": thick.c3, "c1": thick.c1,
                    "d5": thin.d5, "d4": thin.d4, "d2": thin.d2}
            for key, ref in refs.items():
                self.compare(f"coeffs.csv[{row['material']}] {key}", float(row[key]), ref, rel)

    def _border(self, cfg, out_dir: Path) -> None:
        from vdwlayers import border_curve

        path = out_dir / f"border_{cfg.border_kind}.csv"
        for i, row in self._sample(_read_csv(path), BORDER_SAMPLES):
            if row["status"] != "ok":
                continue
            ref = border_curve(cfg.border_kind, [float(row["eps0"])], tight(cfg.quadrature))[0]
            self.compare(f"{path.name}[{i}] mu0", float(row["mu0"]), ref.mu0,
                         cfg.quadrature.rel_tol_outer)

    def _check(self, cfg, out_dir: Path) -> None:
        from vdwlayers import expansion_order1, expansion_order2

        doc = json.loads((out_dir / "check.json").read_text())
        rel = cfg.quadrature.rel_tol_outer
        material = cfg.medium(cfg.check.material)
        refs = {
            "first_order": expansion_order1("thick", cfg.atom, material, cfg.check.z,
                                            spec=tight(cfg.quadrature)),
            "second_order": expansion_order2("thick", cfg.atom, material, cfg.check.z,
                                             spec=tight(cfg.quadrature)),
        }
        stacked = {"first_order": "stacked_thin_plates", "second_order": "stacked_total"}
        for order, ref in refs.items():
            # the thick side against its reference, then the additivity identity:
            # the stacked side must reproduce the same reference
            self.compare(f"check.json {order}.thick", doc[order]["thick"], ref.value, rel,
                         ref.error)
            self.compare(f"check.json {order}.{stacked[order]}", doc[order][stacked[order]],
                         ref.value, rel, ref.error)

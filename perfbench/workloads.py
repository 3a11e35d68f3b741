"""Seeded workload definitions: the config JSON each workload feeds the CLI.

A workload is a list of CLI steps (subcommand, config document, worker count,
tolerance).  The seed only moves grids and positions by a fraction of one
grid step, so every seed does the same amount of work to within a few per
cent and no operation is expected to fail.  The program receives only the generated
config files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ATOM = {"transitions": [{"frequency": 1.0, "dipole_sq": 1.0}]}


def fig2_plate(mu0: float) -> dict:
    """The fig2 plate of the tests and scripts: eps(0) = 1.53, magnetic mu(0) as given."""
    return {
        "electric": [{"plasma": 0.75, "transverse": 1.03, "damping": 0.001}],
        "magnetic": [{"plasma": math.sqrt(mu0 - 1.0), "transverse": 1.0, "damping": 0.001}],
    }


FILM = {"electric": [{"plasma": 1.5, "transverse": 1.2, "damping": 0.001}]}
WEAK_PLATE = {  # acceptance criterion 11: chi(0) ~ 1e-3 in both channels
    "electric": [{"plasma": 0.0326, "transverse": 1.03}],
    "magnetic": [{"plasma": 0.0316, "transverse": 1.0}],
}

# Sizes (points, samples, tolerance) are fixed per workload; see README.md.
HALFSPACE_POINTS = 20
HALFSPACE_THREADS = 2
MULTILAYER_POINTS = 5
WALL_SAMPLES = 12
BORDER_POINTS = 560
CHECK_REL_TOL = 1e-3
CHECK_Z = 1.0


@dataclass(frozen=True)
class Step:
    command: str
    config: dict
    threads: int = 1
    rel_tol: float | None = None  # the CLI's --rel-tol


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]
    # layers whose probes must fire in a traced run (a silent zero fails it)
    active: tuple[str, ...] = ()


def _log_jitter(lo: float, hi: float, points: int, frac: float) -> tuple[float, float]:
    """Shift a log grid by ``frac`` of one grid step."""
    ratio = (hi / lo) ** (frac / (points - 1))
    return lo * ratio, hi * ratio


def halfspace_scan(rng: random.Random) -> Workload:
    lo, hi = _log_jitter(0.01, 100.0, HALFSPACE_POINTS, rng.uniform(-0.5, 0.5))
    cfg = {
        "label": "bench halfspace-scan",
        "atom": ATOM,
        "materials": {"mu5": fig2_plate(5.0)},
        "geometry": {"kind": "halfspace", "material": "mu5"},
        "scan": {"z_min": lo, "z_max": hi, "points": HALFSPACE_POINTS, "spacing": "log"},
    }
    return Workload(
        "halfspace-scan",
        "nested engine with closed-form reflection over both substitution modes; "
        "the only workload that runs the process pool",
        (Step("scan", cfg, threads=HALFSPACE_THREADS),),
        active=("config", "cli", "potential", "quadrature", "materials"),
    )


def multilayer_scan(rng: random.Random) -> Workload:
    gap = 6.0
    step = (gap - 1.0) / (MULTILAYER_POINTS - 1)
    shift = rng.uniform(-0.1, 0.1) * step
    cfg = {
        "label": "bench multilayer-scan",
        "atom": ATOM,
        "materials": {"mu5": fig2_plate(5.0), "film": FILM},
        "geometry": {
            "kind": "multilayer",
            "layers": [
                {"material": "mu5", "thickness": "inf"},
                {"material": "vacuum", "thickness": 0.5},
                {"material": "film", "thickness": 0.2},
                {"material": "vacuum", "thickness": gap},
                {"material": "film", "thickness": 0.3},
                {"material": "vacuum", "thickness": 1.0},
                {"material": "mu5", "thickness": "inf"},
            ],
            "atom_layer": 3,
        },
        "scan": {"z_min": 0.5 + shift, "z_max": gap - 0.5 + shift,
                 "points": MULTILAYER_POINTS, "spacing": "linear"},
    }
    return Workload(
        "multilayer-scan",
        "7-layer stack: both wall terms and the N-layer reflection recursion dominate, "
        "which the half-space scan never runs",
        (Step("scan", cfg),),
        active=("config", "cli", "potential", "quadrature", "stack", "materials"),
    )


def wall_border(rng: random.Random) -> Workload:
    plates = {"mu5": fig2_plate(5.0), "mu10": fig2_plate(10.0)}
    wall_cfg = {
        "label": "bench wall",
        "atom": ATOM,
        "materials": plates,
        "geometry": {"kind": "halfspace", "material": ["mu5", "mu10"]},
        "wall": {"z_min": 0.2, "z_max": 5.0, "samples": WALL_SAMPLES},
    }
    coeffs_cfg = {
        "label": "bench coeffs",
        "atom": ATOM,
        "materials": plates,
        "coeffs": {"materials": ["mu5", "mu10"], "thickness": 0.01},
    }
    lo, hi = _log_jitter(1.0, 1000.0, BORDER_POINTS, rng.uniform(0.0, 0.5))
    border_cfg = {
        "label": "bench border",
        "atom": ATOM,
        "materials": plates,
        "border": {"plate_kind": "thick", "eps_min": lo, "eps_max": hi,
                   "points": BORDER_POINTS, "spacing": "log"},
    }
    return Workload(
        "wall-border",
        "serial golden-section wall chains plus the 1-D coefficient and border path, "
        "which bypasses the nested engine",
        (Step("wall", wall_cfg), Step("coeffs", coeffs_cfg), Step("border", border_cfg)),
        active=("config", "cli", "potential", "quadrature", "materials", "asymptotics"),
    )


def additivity_check(rng: random.Random) -> Workload:
    # z stays at 1: the check's cost is discontinuous in z (its outer integrals
    # refine on inner-quadrature noise), see README.md
    cfg = {
        "label": "bench check",
        "atom": ATOM,
        "materials": {"weak": WEAK_PLATE},
        "check": {"material": "weak", "z": CHECK_Z},
    }
    return Workload(
        "additivity-check",
        "the only user of perturbation: Python loops of full 2-D integrals per outer node",
        (Step("check", cfg, rel_tol=CHECK_REL_TOL),),
        active=("config", "cli", "quadrature", "materials", "perturbation"),
    )


WORKLOADS = {
    "halfspace-scan": halfspace_scan,
    "multilayer-scan": multilayer_scan,
    "wall-border": wall_border,
    "additivity-check": additivity_check,
}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

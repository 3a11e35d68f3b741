"""Material dispersion models and atomic polarizability on the imaginary frequency axis.

Everything is expressed in reduced units hbar = c = eps0 = mu0 = 1, with
frequencies measured against a caller-chosen reference frequency and lengths
in units of c/omega_ref.  Response functions are only ever evaluated at purely
imaginary frequency omega = i*u (u >= 0), where permittivity, permeability and
polarizability are real, positive and monotonically decreasing in u.  This is
what keeps all downstream integrals smooth and non-oscillatory.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Resonance",
    "MaterialModel",
    "PerfectMirror",
    "CONDUCTING_MIRROR",
    "PERMEABLE_MIRROR",
    "Transition",
    "AtomModel",
    "StaticSummary",
    "VACUUM",
    "static_summary",
]


def _require_finite(obj, names: tuple[str, ...], squared: tuple[str, ...] = ()) -> None:
    """Each of ``names`` finite, and each of ``squared`` (a frequency that the
    response squares) at most sqrt(DBL_MAX) ~ 1.34e154, so its square is finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value}")
    for name in squared:
        value = float(getattr(obj, name))
        if not math.isfinite(value * value):
            raise ValueError(f"{type(obj).__name__}.{name} must be at most sqrt(DBL_MAX) "
                             f"~ 1.34e154 in size, so that its square is finite, got {value}")


@dataclass(frozen=True)
class Resonance:
    """One Drude-Lorentz resonance: plasma, transverse and damping frequencies.

    ``plasma = 0`` encodes an absent response channel.  On the imaginary axis
    the resulting susceptibility contribution is ``plasma^2 / (transverse^2 +
    u^2 + damping*u)``, which is real, positive and pole-free for u >= 0, so
    the lossless limit ``damping = 0`` is numerically benign.
    """

    plasma: float
    transverse: float
    damping: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, ("plasma", "transverse", "damping"), ("plasma", "transverse"))
        if not self.transverse > 0.0:
            raise ValueError(f"transverse frequency must be > 0, got {self.transverse}")
        if self.plasma < 0.0:
            raise ValueError(f"plasma frequency must be >= 0, got {self.plasma}")
        if self.damping < 0.0:
            raise ValueError(f"damping must be >= 0, got {self.damping}")


def _entry(cls, entry):
    """``entry`` as a ``cls``: itself, a mapping of its fields by name, or a sequence of them.

    A mapping key that names no field raises TypeError naming ``cls``.
    """
    if isinstance(entry, cls):
        return entry
    if isinstance(entry, Mapping):
        unknown = sorted(set(entry) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise TypeError(f"{cls.__name__} has no field {unknown[0]!r}; its fields are "
                            f"{', '.join(f.name for f in dataclasses.fields(cls))}")
        return cls(**entry)
    return cls(*entry)


def _lorentz_sum(resonances: Sequence[Resonance], u):
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    for r in resonances:
        out = out + r.plasma**2 / (r.transverse**2 + u * u + r.damping * u)
    return out


def _maybe_scalar(x, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class MaterialModel:
    """Magnetodielectric medium as independent sums of Drude-Lorentz resonances.

    Empty resonance lists give vacuum (eps = mu = 1 identically).
    """

    electric: tuple[Resonance, ...] = ()
    magnetic: tuple[Resonance, ...] = ()

    def __post_init__(self) -> None:
        for name in ("electric", "magnetic"):
            object.__setattr__(self, name, tuple(
                _entry(Resonance, r) for r in getattr(self, name)))

    def eps(self, u):
        """Relative permittivity at imaginary frequency omega = i*u."""
        return _maybe_scalar(_lorentz_sum(self.electric, u), u)

    def mu(self, u):
        """Relative permeability at imaginary frequency omega = i*u."""
        return _maybe_scalar(_lorentz_sum(self.magnetic, u), u)

    @property
    def is_vacuum(self) -> bool:
        return not self.electric and not self.magnetic

    def swapped(self) -> "MaterialModel":
        """Duality transform: exchange electric and magnetic response."""
        return MaterialModel(electric=self.magnetic, magnetic=self.electric)

    def resonance_frequencies(self) -> tuple[float, ...]:
        return tuple(r.transverse for r in self.electric + self.magnetic if r.plasma > 0)


VACUUM = MaterialModel()


@dataclass(frozen=True)
class PerfectMirror:
    """Idealized perfectly reflecting medium.

    ``kind = "conducting"`` is the eps -> infinity limit (r_s = -1, r_p = +1),
    ``kind = "permeable"`` the mu -> infinity limit (r_s = +1, r_p = -1).
    Represented as a flag rather than a huge susceptibility so the reflection
    limits carry no cancellation error.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("conducting", "permeable"):
            raise ValueError(f"mirror kind must be 'conducting' or 'permeable', got {self.kind!r}")

    @property
    def r_s(self) -> float:
        return -1.0 if self.kind == "conducting" else 1.0

    @property
    def r_p(self) -> float:
        return 1.0 if self.kind == "conducting" else -1.0

    def swapped(self) -> "PerfectMirror":
        return PerfectMirror("permeable" if self.kind == "conducting" else "conducting")


CONDUCTING_MIRROR = PerfectMirror("conducting")
PERMEABLE_MIRROR = PerfectMirror("permeable")

Medium = MaterialModel | PerfectMirror


@dataclass(frozen=True)
class Transition:
    """Atomic transition: frequency and squared dipole matrix element."""

    frequency: float
    dipole_sq: float

    def __post_init__(self) -> None:
        _require_finite(self, ("frequency", "dipole_sq"), ("frequency",))
        if not self.frequency > 0.0:
            raise ValueError(f"transition frequency must be > 0, got {self.frequency}")
        if self.dipole_sq < 0.0:
            raise ValueError(f"dipole_sq must be >= 0, got {self.dipole_sq}")
        square = self.frequency**2  # alpha(0) takes frequency * dipole_sq / square
        if not (square > 0.0 and math.isfinite(self.frequency * self.dipole_sq / square)):
            raise ValueError(f"Transition.frequency * Transition.dipole_sq / frequency^2, its "
                             f"alpha(0) share, must be finite: {self.frequency}, {self.dipole_sq}")


@dataclass(frozen=True)
class AtomModel:
    """Ground-state atom described by its electric-dipole transitions."""

    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        transitions = tuple(_entry(Transition, t) for t in self.transitions)
        if not transitions:
            raise ValueError("atom needs at least one transition")
        # alpha(0) summed in alpha's order as Python floats: an overflow is inf, not a warning
        if not math.isfinite(sum(t.frequency * t.dipole_sq / t.frequency**2 for t in transitions)):
            raise ValueError(f"AtomModel.transitions: their alpha(0) shares must have a finite "
                             f"sum: {transitions}")
        object.__setattr__(self, "transitions", transitions)

    @classmethod
    def two_level(cls, frequency: float = 1.0, dipole_sq: float = 1.0) -> "AtomModel":
        return cls((Transition(frequency, dipole_sq),))

    def alpha(self, u):
        """Ground-state polarizability at omega = i*u: (2/3) sum_k w_k |d_k|^2 / (w_k^2 + u^2)."""
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for t in self.transitions:
            out = out + t.frequency * t.dipole_sq / (t.frequency**2 + u * u)
        return _maybe_scalar(2.0 / 3.0 * out, u)

    @property
    def alpha0(self) -> float:
        return float(self.alpha(0.0))

    @property
    def dipole_sq_total(self) -> float:
        return sum(t.dipole_sq for t in self.transitions)

    @property
    def omega_min(self) -> float:
        return min(t.frequency for t in self.transitions)

    @property
    def omega_max(self) -> float:
        return max(t.frequency for t in self.transitions)


@dataclass(frozen=True)
class StaticSummary:
    """Static (u = 0) response values used by the long-distance formulas."""

    eps0: float
    mu0: float
    n0: float
    impedance: float
    chi_e0: float
    chi_m0: float


def _require_dispersive(name: str, material) -> None:
    """TypeError naming ``name`` for a perfect mirror, which has no eps(u) or mu(u)."""
    if isinstance(material, PerfectMirror):
        raise TypeError(f"{name} needs a dispersive material, not a perfect mirror")


def static_summary(material: MaterialModel) -> StaticSummary:
    _require_dispersive("static_summary", material)
    eps0 = material.eps(0.0)
    mu0 = material.mu(0.0)
    return StaticSummary(
        eps0=eps0,
        mu0=mu0,
        n0=math.sqrt(eps0 * mu0),
        impedance=math.sqrt(mu0 / eps0),
        chi_e0=eps0 - 1.0,
        chi_m0=mu0 - 1.0,
    )


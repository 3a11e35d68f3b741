"""Ground-state atom-surface potentials for the supported planar geometries.

Every potential is the double integral over imaginary frequency u and the
vacuum axial wavenumber b of

    (1 / 8 pi^2) * alpha(iu) * e^{-2 b z} * [u^2 r_s/D_s - (2 b^2 - u^2) r_p/D_p]

summed over the walls on both sides of the atom, with geometry entering only
through the reflection coefficients: ``_wall_kernel`` is the one place that
forms this integrand, without its factor e^{-2 b z}, which ``integrate_nested``
applies.  Half-space, plate and two-plate scenes are ``LayerStack``s
evaluated by ``potential_multilayer``; a perfect mirror is a layer like any
other (r_s = -+1, r_p = +-1), and every medium, however large its response,
takes this one path.  The thin plate feeds the same kernel its
linear-in-thickness coefficients; ``potential_mirror``, the closed 1-D form
of the perfect-mirror half-space, is kept as an oracle.  Every potential
takes ``z`` as a float (one ``PotentialResult``) or a 1-D array (one
``PotentialBatch``, arrays with one entry per z) and is one
``integrate_nested`` call: one b-node table serves every entry and, for an
atom in an interior layer, both walls, as two channels formed from one
``reflection_coefficients`` call, so the left/right split is exact
bookkeeping.  Position-independent bulk terms are omitted
throughout, so an all-vacuum scene gives exactly zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .materials import (
    VACUUM,
    AtomModel,
    MaterialModel,
    Medium,
    PerfectMirror,
    static_summary,
)
from .quadrature import (IntegralBatch, NodeTable, QuadratureSpec, _as_rows, _require_positive,
                         integrate_nested, integrate_semi_infinite)
from .stack import Layer, LayerStack, reflection_coefficients, thin_layer_reflection

__all__ = [
    "PotentialResult",
    "PotentialBatch",
    "potential_mirror",
    "potential_halfspace",
    "potential_plate",
    "potential_thin_plate",
    "potential_two_plates",
    "potential_multilayer",
]

_PREF = 1.0 / (8.0 * math.pi**2)


@dataclass(frozen=True)
class PotentialResult:
    """Potential in reduced energy units with quadrature bookkeeping.

    ``left``/``right`` are the contributions of the sub-stacks on either side
    of the atom; they sum to ``value`` exactly.  A potential asked for
    ``power`` p holds (-d/dz)^p of the potential in every field.
    """

    value: float
    error: float
    left: float
    right: float
    converged: bool
    evaluations: int


@dataclass(frozen=True, eq=False)
class PotentialBatch(IntegralBatch):
    """``PotentialResult``'s fields as arrays, one entry per position."""

    left: np.ndarray
    right: np.ndarray
    _row = PotentialResult


def _u_scale(atom: AtomModel, *materials: Medium) -> float:
    freqs = [t.frequency for t in atom.transitions]
    for m in materials:
        if isinstance(m, MaterialModel):
            freqs.extend(m.resonance_frequencies())
    return min(freqs)


def potential_mirror(atom: AtomModel, z, kind: str = "conducting",
                     spec: QuadratureSpec | None = None):
    """Potential in front of a perfectly reflecting plate, as a single 1-D integral.

    ``kind="conducting"`` gives the attractive Casimir-Polder result;
    ``kind="permeable"`` its exact sign flip.  The closed form of
    ``potential_halfspace(atom, PerfectMirror(kind), z)``, which runs the
    b-node table; the tests use it as that path's oracle.
    """
    zs = _as_rows("z", z)
    if kind not in ("conducting", "permeable"):
        raise ValueError(f"kind must be 'conducting' or 'permeable', got {kind!r}")
    sign = -1.0 if kind == "conducting" else 1.0
    value, error = np.empty(zs.size), np.empty(zs.size)
    converged, evaluations = np.empty(zs.size, dtype=bool), np.empty(zs.size, dtype=np.intp)
    for i, zi in enumerate(zs.tolist()):
        def f(u, z=zi):
            uz = u * z
            return atom.alpha(u) * np.exp(-2.0 * uz) * (1.0 + 2.0 * uz + 2.0 * uz * uz)

        res = integrate_semi_infinite(f, 0.0, spec=spec, scale=min(_u_scale(atom), 0.5 / zi))
        pref = 1.0 / (16.0 * math.pi**2 * zi**3)
        value[i], error[i] = sign * pref * res.value, pref * res.error
        converged[i], evaluations[i] = res.converged, res.evaluations
    batch = PotentialBatch(value, error, evaluations, converged, value, np.zeros(zs.size))
    return batch if np.ndim(z) else batch[0]


def _wall_kernel(atom: AtomModel, refl):
    """The z-free wall integrand of (u, b); ``refl(u, b)`` gives the walls' (r_s, r_p)."""
    def kernel(u, b):
        r_s, r_p = refl(u, b)
        bracket = u * u * r_s - (2.0 * b * b - u * u) * r_p
        return _PREF * atom.alpha(u) * bracket

    return kernel


def _two_walls(rows: IntegralBatch, power) -> PotentialBatch:
    """The potentials of a left and a right wall term, rows 0 and 1 of ``rows``; the
    right wall sits at d - z, so an odd ``power`` p flips its (-d/dw)^p term's sign."""
    left, right = rows.values
    right = np.where(np.asarray(power) % 2 == 1, -right, right)
    return PotentialBatch(left + right, rows.errors[0] + rows.errors[1],
                          rows.row_evaluations.sum(axis=0), rows.row_converged.all(axis=0),
                          left, right)


def potential_halfspace(atom: AtomModel, material: Medium, z,
                        spec: QuadratureSpec | None = None, *, table: NodeTable | None = None,
                        power=0):
    """Potential in front of a semi-infinite magnetodielectric half-space."""
    _as_rows("z", z)  # an error names z; LayerStack would name it atom_position
    stack = LayerStack((Layer(material, math.inf), Layer(VACUUM, math.inf)), 1, z)
    return potential_multilayer(stack, atom, spec, table=table, power=power)


def potential_plate(atom: AtomModel, material: Medium, thickness: float, z,
                    spec: QuadratureSpec | None = None, *, table: NodeTable | None = None,
                    power=0):
    """Potential in front of a plate of finite thickness."""
    _as_rows("z", z)  # an error names z; LayerStack would name it atom_position
    _require_positive("thickness", thickness)
    stack = LayerStack(
        (Layer(VACUUM, math.inf), Layer(material, thickness), Layer(VACUUM, math.inf)), 2, z
    )
    return potential_multilayer(stack, atom, spec, table=table, power=power)


def potential_thin_plate(atom: AtomModel, material: MaterialModel, thickness: float, z,
                         spec: QuadratureSpec | None = None, *,
                         table: NodeTable | None = None, power=0):
    """Thin-plate potential, exactly linear in the thickness.

    Valid for n(0) * thickness << z; one warning per call (not an error)
    counts the z where n(0) * thickness / z > 0.1.
    """
    zs = _as_rows("z", z)
    _require_positive("thickness", thickness)
    if isinstance(material, PerfectMirror):
        raise TypeError("the thin-plate linearization is undefined for a perfect mirror")
    ratio = static_summary(material).n0 * thickness / zs
    outside = ratio > 0.1
    if outside.any():
        warnings.warn(
            f"thin-plate linearization used outside its regime at {int(outside.sum())} of "
            f"{zs.size} z: largest n(0) d / z = {ratio.max():.3g} > 0.1",
            stacklevel=2,
        )
    refl = partial(thin_layer_reflection, material, thickness)
    rows = integrate_nested(_wall_kernel(atom, refl), z=zs, spec=spec,
                            u_scale=_u_scale(atom, material), table=table, power=power)
    batch = PotentialBatch(rows.values, rows.errors, rows.row_evaluations, rows.row_converged,
                           rows.values, np.zeros(zs.size))
    return batch if np.ndim(z) else batch[0]


def potential_two_plates(atom: AtomModel, material: Medium, separation: float, z,
                         spec: QuadratureSpec | None = None,
                         multiple_reflections: bool = True, *, power=0):
    """Potential of an atom between two identical infinitely thick plates.

    With ``multiple_reflections=False`` the result is the sum of the two
    single-plate potentials at z and separation - z (the cavity denominators
    forced to one), which exposes the multiple-reflection correction by
    comparison.
    """
    _require_positive("separation", separation)
    zs = _as_rows("z", z, separation)
    if not multiple_reflections:  # both walls' distances as the rows of one table
        both = np.tile(np.broadcast_to(power, zs.shape), 2)
        rows = potential_halfspace(atom, material, np.concatenate([zs, separation - zs]), spec,
                                   power=both)
        batch = _two_walls(IntegralBatch(*(field.reshape(2, zs.size) for field in (
            rows.values, rows.errors, rows.row_evaluations, rows.row_converged))), power)
        return batch if np.ndim(z) else batch[0]
    stack = LayerStack(
        (Layer(material, math.inf), Layer(VACUUM, separation), Layer(material, math.inf)), 1, z
    )
    return potential_multilayer(stack, atom, spec, power=power)


def potential_multilayer(stack: LayerStack, atom: AtomModel,
                         spec: QuadratureSpec | None = None, *,
                         table: NodeTable | None = None, power=0):
    """Potential of an atom inside an arbitrary planar multilayer stack.

    The atom layer must be vacuum.  For an interior atom layer the result is
    the exact sum of a left-wall and a right-wall term, two channels of one
    table; for an atom in an outer layer only the inward-facing term exists.
    A 1-D array ``stack.atom_position`` gives a ``PotentialBatch``, one entry
    per position.
    ``table``, a ``NodeTable`` kept by the caller for one stack and atom,
    lets later calls at other positions reuse the nodes of earlier ones
    (the kernel does not depend on the atom position); the half-space,
    plate and thin-plate potentials take and pass it the same way.

    ``power`` (integers p >= 0, one or one per position) asks for
    (-d/dz)^p of the potential instead, z the atom position: p = 1 is the
    force F = -dU/dz and p = 2 is d^2U/dz^2, with ``left`` and ``right``
    the two walls' shares (the right wall's term, a function of d - z,
    takes the sign (-1)^p).  Every potential passes it the same way.
    """
    j = stack.atom_layer
    u_scale = _u_scale(atom, *(layer.material for layer in stack.layers))
    position = np.atleast_1d(np.asarray(stack.atom_position, dtype=float))  # checked by LayerStack

    if 0 < j < stack.n:  # both walls, two channels of one table
        z = np.stack([position, stack.layers[j].thickness - position])

        def walls(r):
            return np.stack([r.r_s_minus, r.r_s_plus]), np.stack([r.r_p_minus, r.r_p_plus])
    else:  # the one inward-facing wall
        z = position

        def walls(r):
            return (r.r_s_plus, r.r_p_plus) if j == 0 else (r.r_s_minus, r.r_p_minus)

    def refl(u, b):
        """Cavity-resummed r/D of the walls the atom sees."""
        r = reflection_coefficients(stack, u, b)
        r_s, r_p = walls(r)
        return r_s / r.d_s, r_p / r.d_p

    rows = integrate_nested(_wall_kernel(atom, refl), z=z, spec=spec, u_scale=u_scale,
                            table=table, power=power)
    if z.ndim == 2:
        batch = _two_walls(rows, power)
    else:  # the other side's term is an exact zero
        zero = np.zeros(position.size)
        left, right = (zero, rows.values) if j == 0 else (rows.values, zero)
        batch = PotentialBatch(left + right, rows.errors, rows.row_evaluations,
                               rows.row_converged, left, right)
    return batch if np.ndim(stack.atom_position) else batch[0]

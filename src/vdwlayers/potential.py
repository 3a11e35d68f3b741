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
takes ``z`` as a float (one ``PotentialResult``) or a 1-D array (a list, one
result per entry) and is one ``integrate_nested`` call: one b-node table
serves every entry and, for an atom in an interior layer, both walls, as two
channels formed from one ``reflection_coefficients`` call, so the left/right
split is exact bookkeeping.  Position-independent bulk terms are omitted
throughout, so an all-vacuum scene gives exactly zero.
"""

from __future__ import annotations

import dataclasses
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
from .quadrature import (IntegralBatch, IntegralResult, NodeTable, QuadratureSpec, _as_rows,
                         _require_positive, integrate_nested, integrate_semi_infinite)
from .stack import Layer, LayerStack, reflection_coefficients, thin_layer_reflection

__all__ = [
    "PotentialResult",
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


def _u_scale(atom: AtomModel, *materials: Medium) -> float:
    freqs = [t.frequency for t in atom.transitions]
    for m in materials:
        if isinstance(m, MaterialModel):
            freqs.extend(m.resonance_frequencies())
    return min(freqs)


def _per_z(z, results: list[PotentialResult]):
    """The one result of a float ``z``, or the list of an array."""
    return results if np.ndim(z) else results[0]


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

    def one(z):
        def f(u):
            uz = u * z
            return atom.alpha(u) * np.exp(-2.0 * uz) * (1.0 + 2.0 * uz + 2.0 * uz * uz)

        res = integrate_semi_infinite(f, 0.0, spec=spec, scale=min(_u_scale(atom), 0.5 / z))
        pref = 1.0 / (16.0 * math.pi**2 * z**3)
        value = sign * pref * res.value
        return PotentialResult(value, pref * res.error, value, 0.0, res.converged,
                               res.evaluations)

    return _per_z(z, [one(zi) for zi in zs.tolist()])


def _wall_kernel(atom: AtomModel, refl):
    """The z-free wall integrand of (u, b); ``refl(u, b)`` gives the walls' (r_s, r_p)."""
    def kernel(u, b):
        r_s, r_p = refl(u, b)
        bracket = u * u * r_s - (2.0 * b * b - u * u) * r_p
        return _PREF * atom.alpha(u) * bracket

    return kernel


def _nested(kernel, z, spec, u_scale, table: NodeTable | None, power=0):
    """``integrate_nested``, given ``table`` and ``power`` only when set (a test engine
    takes neither)."""
    kept = {} if table is None else {"table": table}
    if np.any(power):
        kept["power"] = power
    return integrate_nested(kernel, z=z, spec=spec, u_scale=u_scale, **kept)


def _odd(power, n: int) -> np.ndarray:
    """Which of n rows have an odd ``power``: a wall at distance d - z turns
    (-d/dw)^p of its term into (-1)^p (-d/dz)^p."""
    return np.broadcast_to(np.asarray(power) % 2 == 1, (n,))


def _wall_sum(left, right) -> PotentialResult:
    """Potential of the left and right wall terms (integral or potential results)."""
    return PotentialResult(left.value + right.value, left.error + right.error, left.value,
                           right.value, left.converged and right.converged,
                           left.evaluations + right.evaluations)


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
    batch = _nested(_wall_kernel(atom, refl), zs, spec, _u_scale(atom, material), table, power)
    return _per_z(z, [PotentialResult(r.value, r.error, r.value, 0.0, r.converged, r.evaluations)
                      for r in batch])


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
        both = np.tile(np.broadcast_to(power, zs.shape), 2) if np.any(power) else 0
        rows = potential_halfspace(atom, material, np.concatenate([zs, separation - zs]), spec,
                                   power=both)
        right = [dataclasses.replace(r, value=-r.value) if odd else r
                 for r, odd in zip(rows[zs.size:], _odd(power, zs.size).tolist())]
        return _per_z(z, [_wall_sum(a, b) for a, b in zip(rows[:zs.size], right)])
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
    A 1-D array ``stack.atom_position`` gives one result per entry.
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

    batch = _nested(_wall_kernel(atom, refl), z, spec, u_scale, table, power)
    zero = [IntegralResult(0.0, 0.0, 0, True)] * position.size
    left, right = batch if z.ndim == 2 else (zero, batch) if j == 0 else (batch, zero)
    if z.ndim == 2 and np.any(power):  # the right wall sits at d - z
        right = IntegralBatch(np.where(_odd(power, position.size), -right.values, right.values),
                              right.errors, right.row_evaluations, right.row_converged)
    return _per_z(stack.atom_position, [_wall_sum(a, b) for a, b in zip(left, right)])

"""Ground-state atom-surface potentials for the supported planar geometries.

Every potential is the double integral over imaginary frequency u and the
vacuum axial wavenumber b of

    (1 / 8 pi^2) * alpha(iu) * e^{-2 b z} * [u^2 r_s/D_s - (2 b^2 - u^2) r_p/D_p]

summed over the walls the atom sees, with geometry entering only through the
reflection coefficients.  ``_wall_kernel`` is the one place that forms this
integrand (without e^{-2 b z}, which ``integrate_nested`` applies), and every
geometry is a ``LayerStack`` evaluated by ``_wall_potentials``, the one caller
of ``integrate_nested``: the half-space, plate, thin-plate, two-plate and
multilayer potentials only build their stacks, from ``stack.layout``.  A
perfect mirror is a layer like any other (r_s = -+1, r_p = +-1), as is a
medium however large its response, and a thin plate is a thin layer, whose
step the recursion linearises in its thickness.  ``potential_mirror``, the
closed 1-D form of the perfect-mirror half-space, is kept as an oracle.
Every potential takes ``z`` as a float or a 1-D array and is one call whose
channels are ``LayerStack.walls``, left first (one wall from an outer layer,
two from an interior one), all formed from one ``reflection_coefficients``
call per kernel call; ``_wall_sum`` reduces them, so the left/right split is
exact.  The walls with the bare r in place of r/D (D forced to one, as in
``potential_two_plates(..., multiple_reflections=False)``) are more channels
of that call: a two-plates ``scan`` gets U and U_noreflect from one table.
So are the walls of several stacks of one layout (``potential_multilayer``
given a sequence of stacks): the ``wall`` command searches all its series on
one table.
Position-independent bulk terms are omitted, so a vacuum scene gives zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .materials import AtomModel, MaterialModel, Medium, PerfectMirror, static_summary
from .quadrature import (IntegralBatch, NodeTable, QuadratureSpec, _as_rows, _require_positive,
                         integrate_nested, integrate_semi_infinite)
from .stack import LayerStack, layout, reflection_coefficients

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
    sign = PerfectMirror(kind).r_s
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


def _wall_sum(rows: IntegralBatch, walls, power) -> PotentialBatch:
    """The potentials of the wall terms ``rows``, row c the wall ``walls[c]`` of
    ``LayerStack.walls``; ``left`` and ``right`` are its minus and plus walls' terms."""
    terms = {side: sign ** np.asarray(power) * values  # the sign of its (-d/dz)^p term
             for (side, _, sign), values in zip(walls, rows.values)}
    left, right = (terms.get(side, np.zeros(rows.values.shape[1])) for side in ("minus", "plus"))
    return PotentialBatch(left + right, rows.errors.sum(axis=0), rows.row_evaluations.sum(axis=0),
                          rows.row_converged.all(axis=0), left, right)


def potential_halfspace(atom: AtomModel, material: Medium, z,
                        spec: QuadratureSpec | None = None, *, table: NodeTable | None = None,
                        power=0):
    """Potential in front of a semi-infinite magnetodielectric half-space."""
    _as_rows("z", z)  # an error names z; LayerStack would name it atom_position
    stack = LayerStack(*layout("halfspace", material), z)
    return potential_multilayer(stack, atom, spec, table=table, power=power)


def potential_plate(atom: AtomModel, material: Medium, thickness: float, z,
                    spec: QuadratureSpec | None = None, *, table: NodeTable | None = None,
                    power=0):
    """Potential in front of a plate of finite thickness."""
    _as_rows("z", z)  # an error names z; LayerStack would name it atom_position
    _require_positive("thickness", thickness)
    stack = LayerStack(*layout("plate", material, thickness), z)
    return potential_multilayer(stack, atom, spec, table=table, power=power)


def potential_thin_plate(atom: AtomModel, material: MaterialModel, thickness: float, z,
                         spec: QuadratureSpec | None = None, *,
                         table: NodeTable | None = None, power=0):
    """Thin-plate potential, exactly linear in the thickness: the plate as a thin layer,
    valid for n(0) * thickness << z (``potential_multilayer`` warns where it is > 0.1 z).
    A perfect mirror is no thin layer: ``Layer`` raises ``ValueError``."""
    _as_rows("z", z)  # an error names z; LayerStack would name it atom_position
    _require_positive("thickness", thickness)
    stack = LayerStack(*layout("thin-plate", material, thickness), z)
    return potential_multilayer(stack, atom, spec, table=table, power=power)


def potential_two_plates(atom: AtomModel, material: Medium, separation: float, z,
                         spec: QuadratureSpec | None = None,
                         multiple_reflections: bool = True, *, power=0):
    """Potential of an atom between two identical infinitely thick plates.

    With ``multiple_reflections=False`` each wall's term takes its bare r in
    place of r/D (the cavity denominators forced to one): the sum of the two
    single-plate potentials at z and separation - z, formed on the cavity's
    own stack, which exposes the multiple-reflection correction by comparison.
    """
    _require_positive("separation", separation)
    _as_rows("z", z, separation)  # an error names z; LayerStack would name it atom_position
    stack = LayerStack(*layout("two-plates", material, separation), z)
    return _wall_potentials(stack, atom, spec, (multiple_reflections,), power=power)[0]


def _warn_thin_layers(stack: LayerStack, walls, where: str = "") -> None:
    """One warning per thin layer used outside its regime, counting the positions where
    n(0) d / z > 0.1, z the distance from the atom to the layer's near face; ``where``
    follows "regime" in the message."""
    layers, j = stack.layers, stack.atom_layer
    near = {side: distance for side, distance, _ in walls}  # the atom's, to each wall
    for i, layer in enumerate(layers):
        if not layer.thin:
            continue
        zs = near["minus" if i < j else "plus"] + sum(
            between.thickness for between in layers[min(i, j) + 1:max(i, j)])
        ratio = static_summary(layer.material).n0 * layer.thickness / zs
        outside = ratio > 0.1
        if outside.any():
            warnings.warn(f"thin-plate linearization used outside its regime{where} at "
                          f"{int(outside.sum())} of {zs.size} z: largest n(0) d / z = "
                          f"{ratio.max():.3g} > 0.1", stacklevel=4)


def _wall_potentials(stacks, atom: AtomModel, spec, resummed, *, table=None, power=0) -> list:
    """``potential_multilayer``'s potential once per stack and entry of ``resummed``, stack
    major, from one table: True sums the walls' terms with the cavity-resummed r/D, False
    with the bare r.  ``stacks`` is one ``LayerStack`` or a sequence of stacks whose walls
    lie on the same sides, at positions of one shape; ``power`` broadcasts against the
    positions, or is (stacks, positions)."""
    stacks = [stacks] if isinstance(stacks, LayerStack) else list(stacks)
    walls = [stack.walls for stack in stacks]
    if (not stacks or len({tuple(side for side, _, _ in w) for w in walls}) > 1
            or len({np.shape(stack.atom_position) for stack in stacks}) > 1):
        raise ValueError("one call needs one or more stacks whose walls lie on the same "
                         "sides, at atom positions of one shape")
    u_scale = _u_scale(atom, *(layer.material for stack in stacks for layer in stack.layers))
    for i, (stack, w) in enumerate(zip(stacks, walls)):
        _warn_thin_layers(stack, w, f" in stack {i}" if len(stacks) > 1 else "")

    def refl(u, b):
        """r/D per stack, entry and wall, D forced to one in a bare entry (``np.array``
        stacks faster)."""
        rs = [reflection_coefficients(stack, u, b) for stack in stacks]
        return (np.array([getattr(r, f"r_s_{side}") / (r.d_s if cavity else 1.0)
                          for r, w in zip(rs, walls) for cavity in resummed for side, _, _ in w]),
                np.array([getattr(r, f"r_p_{side}") / (r.d_p if cavity else 1.0)
                          for r, w in zip(rs, walls) for cavity in resummed for side, _, _ in w]))

    z = np.array([dist for w in walls for _ in resummed for _, dist, _ in w])
    per = len(resummed) * len(walls[0])  # rows per stack
    by_stack = np.ndim(power) == 2  # one row of powers per stack
    rows = integrate_nested(_wall_kernel(atom, refl), z=z, spec=spec, u_scale=u_scale,
                            table=table, power=np.repeat(power, per, axis=0) if by_stack else power)
    batches = [_wall_sum(rows[c:c + len(w)], w, power[s] if by_stack else power)
               for s, w in enumerate(walls) for c in range(s * per, (s + 1) * per, len(w))]
    return batches if np.ndim(stacks[0].atom_position) else [batch[0] for batch in batches]


def potential_multilayer(stack: LayerStack | Sequence[LayerStack], atom: AtomModel,
                         spec: QuadratureSpec | None = None, *,
                         table: NodeTable | None = None, power=0):
    """Potential of an atom inside an arbitrary planar multilayer stack.

    The atom layer must be vacuum.  The result is the exact sum of the terms
    of ``stack.walls``, one channel of one table each: both walls of an
    interior atom layer, the inward-facing one of an outer atom layer.
    A 1-D array ``stack.atom_position`` gives a ``PotentialBatch``, one entry
    per position.
    ``table``, a ``NodeTable`` kept by the caller for one stack and atom,
    lets later calls at other positions reuse the nodes of earlier ones
    (the kernel does not depend on the atom position); the half-space,
    plate and thin-plate potentials take and pass it the same way.
    A thin layer warns (not an error) where n(0) d / z > 0.1, z its distance.

    ``power`` (integers p >= 0, one or one per position) asks for
    (-d/dz)^p of the potential instead, z the atom position: p = 1 is the
    force F = -dU/dz and p = 2 is d^2U/dz^2, with ``left`` and ``right``
    the two walls' shares (the right wall's term, a function of d - z,
    takes the sign (-1)^p).  Every potential passes it the same way.

    A sequence of stacks whose walls lie on the same sides, at positions of
    one shape (the series of one geometry, one per material), gives a list of
    batches, one per stack, from one table: each stack's walls are more
    channels of the one call, at its own positions, the inner map's knee
    ``u_scale`` is the least over every stack, and ``power`` may then be
    (stacks, positions).  One stack in a list is the call on that stack.
    """
    batches = _wall_potentials(stack, atom, spec, (True,), table=table, power=power)
    return batches[0] if isinstance(stack, LayerStack) else batches

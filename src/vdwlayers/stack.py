"""Planar multilayer geometry and generalized reflection coefficients.

A stack is an ordered list of layers, index 0..n from left to right; the two
outer layers are semi-infinite.  The atom sits in a vacuum layer j and sees
``LayerStack.walls``, one from an outer layer and two from an interior one.
Every geometry is a stack, a one-medium kind's laid out by ``layout``; a thin
plate is a ``thin`` layer, linearised in its thickness.  The reflection
coefficients r^sigma_{j-}, r^sigma_{j+} describe reflection of s/p polarized
components by the entire sub-stack on either side of the atom layer, built by
an iterative two-term recursion inward from the Fresnel coefficient of the
outermost interface (or from the innermost perfect mirror, which hides
everything beyond it).  They are functions of the imaginary frequency u and
the vacuum axial wavenumber b = sqrt(u^2 + q^2), the variable the potential
integrals run over; each layer's axial wavenumber is
sqrt(u^2 (eps mu - 1) + b^2).  Everything is evaluated at imaginary
frequency, where all quantities are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import VACUUM, Medium, PerfectMirror
from .quadrature import _as_rows

__all__ = [
    "Layer",
    "LayerStack",
    "ReflectionSet",
    "axial_wavenumber",
    "reflection_coefficients",
    "thin_layer_reflection",
    "duality_swap",
    "layout",
]


@dataclass(frozen=True)
class Layer:
    """One layer: its medium and thickness (math.inf for the outer layers); a ``thin``
    layer, linearised in its thickness, is finite, dispersive and not the atom layer."""

    material: Medium
    thickness: float
    thin: bool = False

    def __post_init__(self) -> None:
        if not (self.thickness > 0.0):
            raise ValueError(f"layer thickness must be > 0, got {self.thickness}")
        if self.thin and (math.isinf(self.thickness) or isinstance(self.material, PerfectMirror)):
            raise ValueError("a thin layer must be finite and not a perfect mirror")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers with the atom's location.

    ``atom_position`` is the distance from the atom layer's left boundary;
    for the leftmost layer (index 0, which has no left boundary) it is the
    distance from its right boundary.  It may be a 1-D array of positions:
    the reflection coefficients do not depend on where the atom sits in its
    layer, so one stack serves a whole scan.
    """

    layers: tuple[Layer, ...]
    atom_layer: int
    atom_position: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        layers = self.layers
        if len(layers) < 2:
            raise ValueError("a stack needs at least two layers")
        if not math.isinf(layers[0].thickness) or not math.isinf(layers[-1].thickness):
            raise ValueError("the first and last layer must be semi-infinite")
        for layer in layers[1:-1]:
            if math.isinf(layer.thickness):
                raise ValueError("only the outer layers may be semi-infinite")
        j = self.atom_layer
        if not 0 <= j < len(layers):
            raise ValueError(f"atom_layer {j} out of range")
        mat = layers[j].material
        if isinstance(mat, PerfectMirror) or not mat.is_vacuum or layers[j].thin:
            raise ValueError("the atom layer must be vacuum and not thin")
        zs = _as_rows("atom_position", self.atom_position, layers[j].thickness)
        if np.ndim(self.atom_position):
            zs = zs.copy()
            zs.flags.writeable = False
            object.__setattr__(self, "atom_position", zs)

    @property
    def n(self) -> int:
        return len(self.layers) - 1

    @property
    def walls(self) -> list[tuple[str, np.ndarray, float]]:
        """The walls the atom sees, left first: (side "minus" or "plus", distance at each atom
        position, sign of the wall's (-d/dz)^p term at odd p: -1 for a right wall at d - z)."""
        j = self.atom_layer
        z = np.atleast_1d(np.asarray(self.atom_position, dtype=float))
        if j == 0 or j == self.n:  # an outer layer: the one inward-facing wall, at z
            return [("plus" if j == 0 else "minus", z, 1.0)]
        return [("minus", z, 1.0), ("plus", self.layers[j].thickness - z, -1.0)]


def layout(kind: str, medium: Medium, size: float | None = None) -> tuple[tuple[Layer, ...], int]:
    """(layers, atom layer) of a one-medium kind, ``size`` the thickness of a plate or
    thin plate, or the vacuum gap between two plates."""
    outer = Layer(VACUUM, math.inf)
    if kind == "halfspace":
        return (Layer(medium, math.inf), outer), 1
    if kind == "two-plates":
        return (Layer(medium, math.inf), Layer(VACUUM, size), Layer(medium, math.inf)), 1
    if kind in ("plate", "thin-plate"):
        return (outer, Layer(medium, size, thin=kind == "thin-plate"), outer), 2
    raise ValueError(f"no one-medium layout {kind!r}")


@dataclass(frozen=True)
class ReflectionSet:
    """Generalized reflection coefficients and cavity denominators at one (u, b).

    ``d_s = 1 - r_s_minus * r_s_plus * exp(-2 b d_j)`` resums the multiple
    reflections between the two sub-stacks flanking the atom (``d_p``
    likewise); both equal 1 when the atom sits in an outer layer.
    """

    r_s_minus: float
    r_s_plus: float
    r_p_minus: float
    r_p_plus: float
    d_s: float
    d_p: float


def _require_point(u, b):
    """(u, b) as float arrays, or ValueError naming the argument: every b must be > 0 (b = 0
    is the degenerate point u = q = 0) and every u >= 0; a NaN fails either test."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (b > 0.0).all():
        raise ValueError("b must be > 0: b = 0 (u = q = 0) is a degenerate point, and a "
                         "negative or NaN b is no axial wavenumber")
    if not (u >= 0.0).all():
        raise ValueError("u must be >= 0: it is an imaginary frequency, got a negative or NaN u")
    return u, b


def _require_thickness(d) -> None:
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"need a finite thickness d > 0, got {d}")


def axial_wavenumber(material, u, q):
    """Imaginary-axis z-component of the wave vector, sqrt(u^2 eps mu + q^2).

    (u, b = hypot(u, q)) must pass ``reflection_coefficients``' point rule.
    """
    u = np.asarray(u, float)
    q = np.asarray(q, float)
    _require_point(u, np.hypot(u, q))
    # hypot form avoids under/overflow of u^2 for extreme u
    b = np.hypot(u * np.sqrt(material.eps(u) * material.mu(u)), q)
    return float(b) if np.ndim(b) == 0 else b


def _layer_values(material, u, b):
    """(eps, mu, axial wavenumber, u^2 (eps mu - 1)) of one layer, from the vacuum b."""
    if material.is_vacuum:
        return 1.0, 1.0, b, 0.0
    e = material.eps(u)
    m = material.mu(u)
    w = u * u * (e * m - 1.0)
    return e, m, np.sqrt(w + b * b), w


def _fresnel(out, inn, k, b2, gap=False):
    # Single-interface coefficient seen from the inner layer, between layers
    # with the _layer_values ``out`` and ``inn``, for the response k (1: mu,
    # the s wave; 0: eps, the p wave); b2 is the vacuum b^2.  The numerator
    # ro b_in - ri b_out cancels when u << b and the response is weak, so it
    # is formed times the denominator from b_M^2 = w + b^2:
    # b^2 (ro^2 - ri^2) + (ro^2 w_in - ri^2 w_out).  Swapping the sides
    # negates it exactly.  No numerator term exceeds den^2 (b_M >= b), so
    # only den can overflow: for a huge response (eps or mu ~ 1e150) both
    # responses are scaled by the power of two of the larger one, which
    # leaves the ratio exact.  ``gap`` adds 1 - rho^2 = 4 ro ri b_in b_out / den^2.
    ro, ri = out[k], inn[k]
    den = ro * inn[2] + ri * out[2]
    if np.max(den) > 2.0 ** 500:
        e = np.frexp(np.maximum(ro, ri))[1]
        ro, ri = np.ldexp(ro, -e), np.ldexp(ri, -e)
        den = ro * inn[2] + ri * out[2]
    ro2, ri2 = ro * ro, ri * ri
    rho = (b2 * (ro2 - ri2) + (ro2 * inn[3] - ri2 * out[3])) / (den * den)
    return (rho, 4.0 * ro * ri * inn[2] * out[2] / (den * den)) if gap else rho


def _interface_step(rho, r_behind, fac, em1):
    """Reflection at an interface (Fresnel coefficient ``rho``) behind a layer.

    ``r_behind`` is the reflection beyond the layer, ``fac`` = e^{-2x} its
    round trip through the layer and ``em1`` = fac - 1 from expm1.  The
    numerator rho + fac r is formed as fac (rho + r) - rho em1, which is
    accurate at every depth: a thin layer between like media has r = -rho
    exactly, so its linear-in-thickness reflection keeps full relative
    precision however thin the layer is.
    """
    return (fac * (rho + r_behind) - rho * em1) / (1.0 + rho * fac * r_behind)


def _thin_step(rho, gap, r_behind, depth):
    """``_interface_step`` linearised in the layer's depth x = b_M d: r(0) - 2 x r gap /
    (1 + rho r)^2, r = ``r_behind``, r(0) = (rho + r) / (1 + rho r), gap = 1 - rho^2.  As
    1 + rho r = gap + rho (rho + r), in vacuum (r = -rho) r(0) = 0 exactly and nothing
    cancels.  Terms of order d_i d_j between thin layers are dropped."""
    den = gap + rho * (rho + r_behind)
    return (rho + r_behind) / den - 2.0 * depth * r_behind * gap / (den * den)


def _side_reflection(layers, seq, u, b):
    """(r_s, r_p) of the sub-stack walked along ``seq`` (outermost -> atom layer)."""
    if len(seq) < 2:
        shape = np.broadcast(u, b).shape
        return np.zeros(shape), np.zeros(shape)

    b2 = b * b
    # A perfect mirror hides everything beyond it: seed the walk right there.
    mirror_pos = next((pos for pos in range(len(seq) - 2, -1, -1)
                       if isinstance(layers[seq[pos]].material, PerfectMirror)), None)
    if mirror_pos is not None:
        mirror = layers[seq[mirror_pos]].material
        first = mirror_pos + 1
        prev = _layer_values(layers[seq[first]].material, u, b)
        shape = np.broadcast(u, b).shape
        r_s, r_p = np.full(shape, mirror.r_s), np.full(shape, mirror.r_p)
    else:
        first = 1
        outer = _layer_values(layers[seq[0]].material, u, b)
        prev = _layer_values(layers[seq[1]].material, u, b)
        r_s, r_p = _fresnel(outer, prev, 1, b2), _fresnel(outer, prev, 0, b2)

    for i in range(first + 1, len(seq)):
        here = _layer_values(layers[seq[i]].material, u, b)
        layer = layers[seq[i - 1]]  # the layer the step crosses
        if layer.thin:
            depth = prev[2] * layer.thickness
            r_s = _thin_step(*_fresnel(prev, here, 1, b2, gap=True), r_s, depth)
            r_p = _thin_step(*_fresnel(prev, here, 0, b2, gap=True), r_p, depth)
        else:
            em1 = np.expm1(prev[2] * (-2.0 * layer.thickness))
            fac = 1.0 + em1
            r_s = _interface_step(_fresnel(prev, here, 1, b2), r_s, fac, em1)
            r_p = _interface_step(_fresnel(prev, here, 0, b2), r_p, fac, em1)
        prev = here
    return r_s, r_p


def reflection_coefficients(stack: LayerStack, u, b) -> ReflectionSet:
    """Reflection coefficients of the sub-stacks on both sides of the atom layer.

    ``b`` is the axial wavenumber in vacuum (the atom layer), sqrt(u^2 + q^2)
    for in-plane wavenumber q, so b >= u; ``u`` and ``b`` may be floats or
    broadcastable arrays.  Every b must be > 0 (b = 0 is the degenerate
    point u = q = 0) and every u >= 0, or ValueError names the argument;
    a NaN fails either test.
    """
    u, b = _require_point(u, b)
    j = stack.atom_layer
    n = stack.n
    r_s_m, r_p_m = _side_reflection(stack.layers, range(0, j + 1), u, b)
    r_s_p, r_p_p = _side_reflection(stack.layers, range(n, j - 1, -1), u, b)

    d_j = stack.layers[j].thickness
    if math.isfinite(d_j):
        fac = np.exp(-2.0 * b * d_j)
        d_s = 1.0 - r_s_m * r_s_p * fac
        d_p = 1.0 - r_p_m * r_p_p * fac
    else:  # the atom sits in an outer layer: one wall, no cavity
        d_s = d_p = 1.0

    if np.ndim(u) == 0 and np.ndim(b) == 0:
        return ReflectionSet(
            float(r_s_m), float(r_s_p), float(r_p_m), float(r_p_p), float(d_s), float(d_p)
        )
    return ReflectionSet(r_s_m, r_s_p, r_p_m, r_p_p, d_s, d_p)


def thin_layer_reflection(material, d, u, b):
    """First-order-in-thickness (r_s, r_p) of a layer of thickness d in vacuum.

    d (mu^2 b^2 - b_M^2) / (2 mu b) and d (eps^2 b^2 - b_M^2) / (2 eps b),
    with b the vacuum and b_M the layer's axial wavenumber; valid for
    b_M d << 1.  A thin ``Layer`` in vacuum in closed form, kept as its oracle.  d must
    be finite and > 0, and (u, b) pass ``reflection_coefficients``' point rule.
    """
    _require_thickness(d)
    _require_point(u, b)
    e = material.eps(u)
    m = material.mu(u)
    bm2 = u * u * (e * m - 1.0) + b * b
    return (m * m * b * b - bm2) / (2.0 * m * b) * d, (e * e * b * b - bm2) / (2.0 * e * b) * d


def duality_swap(stack: LayerStack) -> LayerStack:
    """Exchange electric and magnetic response in every layer; a thin layer stays thin."""
    return LayerStack(
        layers=tuple(Layer(layer.material.swapped(), layer.thickness, layer.thin)
                     for layer in stack.layers),
        atom_layer=stack.atom_layer,
        atom_position=stack.atom_position,
    )

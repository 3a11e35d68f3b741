"""Adaptive quadrature for the semi-infinite and nested 2-D integrals.

The engine is an embedded 7/15-point Gauss-Kronrod pair on panels refined by
worst-first bisection with deterministic tie-breaking.  Semi-infinite
intervals are first mapped to [0, 1) by the rational transform
x = a + scale * t / (1 - t); the scale is chosen by the caller to sit at the
knee of the integrand (the exponential decay length for the inner transverse
integral, a characteristic resonance frequency for the outer one).

``integrate_nested`` evaluates integrals of a kernel F(u, b) over the region
u >= 0, b >= u, in any of three equivalent parameterizations:

  nonretarded   int_0^inf du int_u^inf db F(u, b)
  direct        int_0^inf du int_0^inf dq (q/b) F(u, b),  b = hypot(u, q)
  retarded      int_1^inf dv int_0^inf du u F(u, u v)

All inner integrals of one outer refinement step are refined together, as
arrays, so the kernel sees every new inner panel of that step in one call.
It receives broadcastable float arrays: ``u`` of shape (m, 1) and ``b`` of
shape (m, 15) in the ``nonretarded`` and ``direct`` modes, both (m, 15) in
``retarded`` mode, one row per inner panel.  It must return the values at
the broadcast shape (m, 15), computed elementwise, so that a point's value
does not depend on the other points of the batch.  ``b`` here is the vacuum
axial wavenumber of the atom layer, so the change of variables is purely
geometric and identical for every stack.

The 1-D integrals (``integrate_finite``, ``integrate_semi_infinite``) call
their integrand with a 1-D array of 15 nodes per panel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "MODES",
    "resolve_mode",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_nested",
    "DEFAULT_SPEC",
]

MODES = ("direct", "retarded", "nonretarded")

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
)

_XK = np.concatenate([-_XK_HALF[:7], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:7], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])  # weights for _XK[1::2]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, subdivision budget and substitution mode.

    ``mode = None`` selects the default policy: the (u, b) parameterization
    for distances below one reduced length unit, the (u, v) one beyond.
    """

    rel_tol_inner: float = 1e-8
    rel_tol_outer: float = 1e-7
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000
    mode: str | None = None

    def __post_init__(self) -> None:
        if not (self.rel_tol_inner > 0 and self.rel_tol_outer > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.mode is not None and self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """Value with a conservative error estimate.

    ``converged`` implies error <= max(rel_tol * |value|, abs_tol) at the
    tolerances the integral was run with.
    """

    value: float
    error: float
    evaluations: int
    converged: bool


def _require(res, what: str) -> float:
    if not res.converged:
        raise RuntimeError(f"quadrature for {what} did not converge "
                           f"(error estimate {res.error:.3e})")
    return res.value


def resolve_mode(mode: str | None, z: float) -> str:
    if mode is not None:
        return mode
    return "nonretarded" if z < 1.0 else "retarded"


def _eval_panel(f, a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _XK
    fx = np.asarray(f(x), dtype=float)
    resk = h * float(_WK @ fx)
    resg = h * float(_WG @ fx[1::2])
    resabs = h * float(_WK @ np.abs(fx))
    err = abs(resk - resg)
    if err != 0.0:
        mean = resk / (b - a)
        resasc = h * float(_WK @ np.abs(fx - mean))
        if resasc != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def _adaptive(f, a, b, rel_tol, abs_tol, max_subdivisions):
    """Worst-first panel bisection.  Returns (value, error, evals, converged)."""
    val, err = _eval_panel(f, a, b)
    evals = 15
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    done: list[tuple] = []
    tot_val, tot_err = val, err
    splits = 0
    while tot_err > max(rel_tol * abs(tot_val), abs_tol) and splits < max_subdivisions:
        if not heap:
            break
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):  # panel at floating-point resolution
            done.append((0.0, 0, pa, pb, pval, perr))
            continue
        v1, e1 = _eval_panel(f, pa, mid)
        v2, e2 = _eval_panel(f, mid, pb)
        evals += 30
        splits += 1
        tot_val += v1 + v2 - pval
        tot_err += e1 + e2 - perr
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, pb, v2, e2))

    panels = heap + done
    tot_val = math.fsum(p[4] for p in panels)
    tot_err = math.fsum(p[5] for p in panels)
    converged = tot_err <= max(rel_tol * abs(tot_val), abs_tol)
    return tot_val, tot_err, evals, converged


def _rowdot(x, w):
    # einsum sums each row on its own, so a panel's estimate does not depend
    # on the other panels of the batch (a BLAS matrix-vector product can).
    return np.einsum("ij,j->i", x, w)


def _eval_panels(f, rows, a, b, with_aux):
    """``_eval_panel`` for many panels at once; panel i belongs to integral rows[i].

    ``f`` returns float arrays of the shape of the (m, 15) nodes ``t``.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    t = c[:, None] + h[:, None] * _XK
    out = f(rows, t)
    if with_aux:
        fx, gx = out
        aux = h * _rowdot(gx, _WK)
    else:
        fx, aux = out, np.zeros_like(h)
    resk = h * _rowdot(fx, _WK)
    resg = h * _rowdot(fx[:, 1::2], _WG)
    resabs = h * _rowdot(np.abs(fx), _WK)
    err = np.abs(resk - resg)
    resasc = h * _rowdot(np.abs(fx - (resk / (b - a))[:, None]), _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((err != 0.0) & (resasc != 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err, aux


# Fields of the per-integral panel table used by _lockstep.
_LO, _HI, _VAL, _ERR, _AUX, _KEY = range(6)


def _lockstep(f, n, rel_tol, abs_tol, max_subdivisions, with_aux=False):
    """``_adaptive`` over [0, 1] for n integrals at once, refined in lockstep.

    ``f(rows, t)`` returns the integrand of integral ``rows[i]`` at the nodes
    ``t[i]``, an (m, 15) array; with ``with_aux`` it returns a second array
    that is integrated on the same panels without steering the refinement.
    Each step, every integral that has not converged splits its own worst
    panel, and all new panels go to ``f`` in one call.  Panels are stored per
    integral in creation order, with their error as the queue key until they
    leave the queue (key -inf), so ``argmax`` picks the panel the scalar
    heap's (-err, seq) order would pop.  A split panel's value, error and
    aux are zeroed, which leaves the final sums over the leaves alone.
    Returns per-integral arrays (value, error, aux, evals, converged).
    """
    if n == 0:  # e.g. a border whose points all sit at eps0 = 1
        empty = np.zeros(0)
        return empty, empty, empty, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    rows = np.arange(n)
    cap = 8
    tab = np.zeros((6, n, cap))
    tab[_KEY] = -np.inf
    v, e, x = _eval_panels(f, rows, np.zeros(n), np.ones(n), with_aux)
    tab[_HI, :, 0] = 1.0
    tab[_VAL, :, 0], tab[_ERR, :, 0], tab[_AUX, :, 0], tab[_KEY, :, 0] = v, e, x, e
    splits = np.zeros(n, dtype=np.intp)  # integral i uses columns [0, 1 + 2 * splits[i])
    tot_val, tot_err = v, e
    live = np.ones(n, dtype=bool)
    while True:
        live &= (tot_err > np.maximum(rel_tol * np.abs(tot_val), abs_tol)) \
            & (splits < max_subdivisions)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        col = np.argmax(tab[_KEY, idx, :1 + 2 * splits.max()], axis=1)
        queued = tab[_KEY, idx, col] > -np.inf
        if not queued.all():
            live[idx[~queued]] = False  # queue exhausted
            idx, col = idx[queued], col[queued]
        pa, pb = tab[_LO, idx, col], tab[_HI, idx, col]
        mid = 0.5 * (pa + pb)
        tab[_KEY, idx, col] = -np.inf
        ok = (pa < mid) & (mid < pb)  # else the panel is at floating-point resolution
        if not ok.all():
            idx, col, pa, pb, mid = idx[ok], col[ok], pa[ok], pb[ok], mid[ok]
            if not idx.size:
                continue
        if 2 * splits[idx].max() + 3 > cap:  # copy in place: no concatenate temporary
            grown = np.zeros((6, n, 2 * cap))
            grown[_KEY, :, cap:] = -np.inf
            grown[:, :, :cap] = tab
            tab = grown
            cap *= 2
        k = idx.size
        rows2 = np.concatenate([idx, idx])
        lo2, hi2 = np.concatenate([pa, mid]), np.concatenate([mid, pb])
        v, e, x = _eval_panels(f, rows2, lo2, hi2, with_aux)
        tot_val[idx] += v[:k] + v[k:] - tab[_VAL, idx, col]
        tot_err[idx] += e[:k] + e[k:] - tab[_ERR, idx, col]
        tab[_VAL:_KEY, idx, col] = 0.0
        new = 1 + 2 * splits[idx]
        tab[:, rows2, np.concatenate([new, new + 1])] = (lo2, hi2, v, e, x, e)
        splits[idx] += 1

    used = 1 + 2 * splits.max()
    value = np.array([math.fsum(r) for r in tab[_VAL, :, :used].tolist()])
    error = np.array([math.fsum(r) for r in tab[_ERR, :, :used].tolist()])
    aux = np.array([math.fsum(r) for r in tab[_AUX, :, :used].tolist()]) if with_aux \
        else np.zeros(n)
    converged = error <= np.maximum(rel_tol * np.abs(value), abs_tol)
    return value, error, aux, 15 + 30 * splits, converged


def integrate_finite(f, a: float, b: float, *, spec: QuadratureSpec | None = None,
                     rel_tol: float | None = None) -> IntegralResult:
    """Adaptive integral of a vectorized integrand over the finite [a, b]."""
    spec = spec or DEFAULT_SPEC
    rel = rel_tol if rel_tol is not None else spec.rel_tol_outer
    val, err, evals, conv = _adaptive(f, a, b, rel, spec.abs_tol, spec.max_subdivisions)
    return IntegralResult(val, err, evals, conv)


def _mapped(f, a, scale):
    # Nodes are interior, but panels refined to floating-point resolution can
    # round onto t = 1; the decayed endpoint contributes zero measure.  ``a``
    # and ``scale`` may be columns, one entry per row of ``t``.
    def g(t):
        onemt = 1.0 - t
        good = onemt > 0.0
        safe = np.where(good, onemt, 1.0)
        x = a + scale * t / safe
        vals = np.asarray(f(x), dtype=float) * (scale / (safe * safe))
        return np.where(good, vals, 0.0)

    return g


def integrate_semi_infinite(f, a: float = 0.0, *, spec: QuadratureSpec | None = None,
                            scale: float = 1.0, rel_tol: float | None = None) -> IntegralResult:
    """Adaptive integral of a vectorized, decaying integrand over [a, infinity).

    ``scale`` positions the quadrature nodes: half of them land below
    a + scale.  Exponential or power-law decay (1/x^2 or faster) is handled
    by the rational map; slower tails will not converge.
    """
    spec = spec or DEFAULT_SPEC
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    rel = rel_tol if rel_tol is not None else spec.rel_tol_outer
    val, err, evals, conv = _adaptive(
        _mapped(f, a, scale), 0.0, 1.0, rel, spec.abs_tol, spec.max_subdivisions
    )
    return IntegralResult(val, err, evals, conv)


def _point_map(kernel, mode: str, b_scale: float, u_scale: float):
    """Inner integrand of ``mode`` on [0, 1) for a column of outer nodes p."""
    if mode == "nonretarded":  # p = u, inner variable b on [u, inf)
        def point_map(u, t):
            return _mapped(lambda b: kernel(u, b), u, b_scale)(t)
    elif mode == "direct":  # p = u, inner variable q on [0, inf)
        def point_map(u, t):
            def fq(q):
                b = np.hypot(u, q)
                return (q / b) * kernel(u, b)
            return _mapped(fq, 0.0, b_scale)(t)
    else:  # retarded: p = v, inner variable u on [0, inf)
        def point_map(v, t):
            return _mapped(lambda u: u * kernel(u, u * v), 0.0,
                           np.minimum(u_scale, b_scale / v))(t)
    return point_map


def integrate_nested(kernel, *, z: float, spec: QuadratureSpec | None = None,
                     u_scale: float = 1.0, mode: str | None = None) -> IntegralResult:
    """Nested adaptive integral of F(u, b) over u >= 0, b >= u.

    ``z`` is the decay length of the e^{-2 b z} factor carried by the kernel;
    it fixes the inner map scale and the default substitution mode.  The
    reported error adds the outer panel estimate and the integrated inner
    error estimates; ``converged`` requires every inner integral to have
    converged as well.  Each outer step integrates both halves of its split
    with one lockstep batch of 30 inner integrals.
    """
    spec = spec or DEFAULT_SPEC
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"z must be finite and > 0, got {z}")
    mode = resolve_mode(mode if mode is not None else spec.mode, z)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    b_scale = 0.5 / z
    point_map = _point_map(kernel, mode, b_scale, u_scale)
    if mode == "retarded":
        outer_a, outer_scale = 1.0, 1.0
    else:
        outer_a, outer_scale = 0.0, min(u_scale, b_scale)
    state = {"evals": 0, "ok": True}

    def outer(rows, t):
        nodes = (outer_a + outer_scale * t / (1.0 - t)).reshape(-1, 1)
        vals, errs, _, evals, conv = _lockstep(
            lambda r, s: point_map(nodes[r], s), nodes.shape[0],
            spec.rel_tol_inner, spec.abs_tol, spec.max_subdivisions,
        )
        state["evals"] += int(evals.sum())
        state["ok"] = state["ok"] and bool(conv.all())
        jac = outer_scale / (1.0 - t) ** 2
        return vals.reshape(t.shape) * jac, errs.reshape(t.shape) * jac

    val, err, aux, _, conv = _lockstep(
        outer, 1, spec.rel_tol_outer, spec.abs_tol, spec.max_subdivisions, with_aux=True
    )
    return IntegralResult(float(val[0]), float(err[0] + aux[0]), state["evals"],
                          bool(conv[0]) and state["ok"])

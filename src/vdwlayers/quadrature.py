"""Adaptive quadrature for the semi-infinite and nested 2-D integrals.

The engine is an embedded 7/15-point Gauss-Kronrod pair on panels refined by
worst-first bisection with deterministic tie-breaking.  Semi-infinite
intervals are first mapped to [0, 1) by the rational transform
x = a + scale * t / (1 - t); the scale is chosen by the caller to sit at the
knee of the integrand.

``integrate_nested`` integrates e^{-2 b z} kernel(u, b) over u >= 0, b >= u
in the swapped order int_0^inf db e^{-2 b z} G(b), G(b) = int_0^b du
kernel(u, b): one table of G on b-nodes serves every channel and every z of
the call, and of later calls given the same ``NodeTable``, and only the
engine applies e^{-2 b z}.  The table calls the
kernel with ``u`` of shape (m, 15) and ``b`` of shape (m, 1), one b node per
row, and it must return the values at the broadcast shape (after a leading
axis of k channels), computed elementwise, so that a point's value does not
depend on the rest of the batch.  The table's inner integrals are one
``_lockstep`` whose integrand always carries the channel axis, one channel
included.  ``b`` is the vacuum axial wavenumber of
the atom layer, so the change of variables is identical for every stack.
Every row, one per (channel, z), carries an integer power p and weighs
e^{-2 b z} by (2 b)^p, formed as the one exponential e^{p log(2 b) - 2 b z},
which makes it (-d/dz)^p of U: p = 0 is U itself (0 log(2 b) is +-0, so its
weight is e^{-2 b z} to the bit), p = 1 is the force, and a row with p >= 1
scales its tolerance on the integral of its |integrand|, as its value
vanishes at a wall.  The rows share the table's panels: each row's error
adds its own outer and weighted inner estimates, the same input gives the
same bytes, and a row is not the float call bit for bit.  A node's inner
integral stops at max(rel_tol_inner |G|, a), where the floor a is a share
theta / N of the least tolerance over the rows divided by the node's weight
in that row, so floors add at most theta times a row's tolerance to its
error: a node that no row can see is not refined.  A refinement round
works on the whole table: a split or redone panel restarts from zero nodes,
and every panel's sums are formed again from the stored nodes.  The tests
check the table against a nested engine in three substitutions
(``tests/conftest.py``) that integrates each z and each channel on its own.

The 1-D integrals (``integrate_finite``, ``integrate_semi_infinite``) are
the one-integral case of one driver, ``_oned``, which refines n integrals
in lockstep, each on its own panels, with one integrand call per step for
the new panels of every open integral.  Their integrand gets a flat array
of the 15 nodes of every new panel and must return its values elementwise,
either flat (one channel, an ``IntegralResult``) or with k channels on a
leading axis; the flat path serves them and the test oracles
(``tests/conftest.py``).  The k channels share one node set, the driver
steers on the worst channel's error over its tolerance, and the call
returns a k-row ``IntegralBatch`` with each channel's own value, error and
convergence.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "IntegralBatch",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_nested",
    "NodeTable",
    "DEFAULT_SPEC",
]

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
# QUADPACK's rounding floor of a panel's error, per unit of its integral of |f|
_ROUND_OFF = 50.0 * _EPS


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _require_integer(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _as_rows(name: str, value, below: float = math.inf) -> np.ndarray:
    """A float or 1-D array as a 1-D array, every entry finite, > 0 and < ``below``.

    A bad entry of an array is named by its index.
    """
    rows = np.asarray(value, dtype=float)
    if rows.ndim > 1:
        raise ValueError(f"{name} must be a float or a 1-D array, got shape {rows.shape}")
    bad = np.flatnonzero(~(np.isfinite(rows) & (rows > 0.0) & (rows < below)))
    if bad.size:
        rule = "> 0" if below == math.inf else f"in (0, {below})"
        got = value if rows.ndim == 0 else f"{name}[{bad[0]}] = {rows.flat[bad[0]]}"
        raise ValueError(f"{name} must be finite and {rule}, got {got}")
    return rows.reshape(-1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget of the adaptive integrals.

    ``max_subdivisions`` bounds the splits of every adaptive integral and the
    outer panels of a b-node table.
    """

    rel_tol_inner: float = 1e-8
    rel_tol_outer: float = 1e-7
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        for name in ("rel_tol_inner", "rel_tol_outer", "abs_tol"):
            _require_positive(name, getattr(self, name))
        _require_integer("max_subdivisions", self.max_subdivisions, 1)


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """Value with a conservative error estimate.

    ``converged`` implies error <= max(rel_tol * |value|, abs_tol) at the
    tolerances the integral was run with (for a row of ``integrate_nested``
    with power p >= 1, rel_tol times the integral of its |integrand|).
    """

    value: float
    error: float
    evaluations: int
    converged: bool


def _take(part, i):
    """Entry or slice i of an array (a Python scalar from an entry of a 1-D one) or of a
    dict's arrays."""
    if isinstance(part, dict):
        return {key: _take(x, i) for key, x in part.items()}
    x = part[i] if isinstance(part, np.ndarray) else part
    return x.item() if isinstance(x, np.generic) else x


# The row field of each batch field whose name differs
_ROW_FIELD = {"values": "value", "errors": "error", "row_evaluations": "evaluations",
              "row_converged": "converged"}


@dataclass(frozen=True, eq=False)
class IntegralBatch:
    """Results of one ``integrate_nested`` call, one row per entry of its 1-D or 2-D z,
    or of one k-channel 1-D integral, one row per channel.

    ``batch[i]`` (and iteration) is row i's ``_row`` (in a 2-D batch, channel i's batch),
    made of every field taken at i, and ``batch[i:j]`` the batch of those rows (channels);
    ``evaluations`` is the call's kernel points (the sum of ``row_evaluations``) and
    ``converged`` every row's.  The potentials' and expansion terms' batches add fields
    and a ``_row`` type of their own.
    """

    values: np.ndarray
    errors: np.ndarray
    row_evaluations: np.ndarray
    row_converged: np.ndarray
    _row = IntegralResult

    @property
    def evaluations(self) -> int:
        return int(self.row_evaluations.sum())

    @property
    def converged(self) -> bool:
        return bool(self.row_converged.all())

    def __len__(self) -> int:  # iteration runs on __getitem__ until IndexError
        return len(self.row_converged)

    def __getitem__(self, i: int | slice):
        parts = {f.name: _take(getattr(self, f.name), i) for f in dataclasses.fields(self)}
        if isinstance(i, slice) or self.row_converged.ndim == 2:
            return type(self)(**parts)
        return self._row(**{_ROW_FIELD.get(name, name): x for name, x in parts.items()})


def _require(res, what: str) -> float:
    if not res.converged:
        raise RuntimeError(f"quadrature for {what} did not converge "
                           f"(error estimate {res.error:.3e})")
    return res.value


def _rowdot(x, w):
    # einsum sums each row on its own, so a panel's estimate does not depend
    # on the other panels of the batch (a BLAS matrix-vector product can).
    return np.einsum("...j,j->...", x, w)


def _estimate(fx, h):
    """Kronrod value, QUADPACK error estimate and Kronrod integral of |f| per panel.

    The 15 node values of a panel lie along the last axis of ``fx``; the
    half-widths ``h`` broadcast against the other axes.
    """
    resk = h * _rowdot(fx, _WK)
    resg = h * _rowdot(fx[..., 1::2], _WG)
    resabs = h * _rowdot(np.abs(fx), _WK)
    err = np.abs(resk - resg)
    resasc = h * _rowdot(np.abs(fx - (resk / (2.0 * h))[..., None]), _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((err != 0.0) & (resasc != 0.0), scaled, err)
    return resk, np.maximum(err, _ROUND_OFF * resabs), resabs


def _eval_panels(f, rows, a, b):
    """Kronrod values and QUADPACK errors, (m,) or (k, m), of panels [a[i], b[i]] of rows[i]."""
    h = 0.5 * (b - a)
    resk, err, _ = _estimate(f(rows, (0.5 * (a + b))[:, None] + h[:, None] * _XK), h)
    return resk, err


# Fields of the per-integral panel table used by _lockstep; the k channel
# values follow _KEY, then the k channel errors.
_LO, _HI, _KEY, _VAL = range(4)


def _leaf_sums(field, split, used):
    """``math.fsum`` of each row of ``field[:, :used]``; only the ``split`` rows hold
    more than column 0 (one panel and zeros fsum to it, with +0.0 for -0.0)."""
    out = field[:, 0] + 0.0
    out[split] = [math.fsum(r) for r in field[split, :used].tolist()]
    return out


def _lockstep(f, n, rel_tol, abs_tol, max_subdivisions):
    """Worst-first panel bisection over [0, 1] for n integrals, refined in lockstep.

    ``f(rows, t)`` returns the integrand of integral ``rows[i]`` at the nodes
    ``t[i]``, an (m, 15) array, or k channels of it on a leading axis.  The
    b-node table's integrand always has that axis, one channel included; a
    flat one serves ``_oned`` and the test oracles.
    ``rel_tol`` is finite and broadcasts to (k, n).  ``abs_tol`` is a float,
    an array that broadcasts to (k, n), or a function that maps the first
    (k, n) estimates, of one panel each, to such an array; a channel that
    must never bind takes an infinite ``abs_tol`` entry.  Each step,
    every integral with a channel above max(rel_tol |value|, abs_tol) splits
    its worst panel (largest error, or with k channels largest error over
    tolerance), and all new panels go to ``f`` in one call.  Panels are
    stored per integral in creation order, with a queue key that is -inf
    once they leave the queue, so ``argmax`` picks what a heap ordered by
    (-key, creation) would pop; a split panel's values and errors are
    zeroed.  Returns (value, error, channel_converged,
    evals, converged), the first three (n,) for a 2-D ``f``, else (k, n).
    """
    rows = np.arange(n)
    v, e = _eval_panels(f, rows, np.zeros(n), np.ones(n))
    single = v.ndim == 1  # then f stays 2-D: _estimate is faster on it
    v, e = v.reshape(-1, n), e.reshape(-1, n)
    if callable(abs_tol):
        abs_tol = abs_tol(v)
    k = v.shape[0]
    err_ = _VAL + k  # first error field
    rel = np.broadcast_to(rel_tol, (k, n))

    def tolerance(value):
        return np.maximum(rel * np.abs(value), abs_tol)

    def key(err):  # one channel queues on its error; k on 0, steering on err / tol
        return err[0] if k == 1 else np.zeros(err.shape[1])

    cap = 8
    tab = np.zeros((_VAL + 2 * k, n, cap))
    tab[_KEY] = -np.inf
    tab[_HI, :, 0] = 1.0
    tab[_KEY, :, 0] = key(e)
    tab[_VAL:err_, :, 0], tab[err_:, :, 0] = v, e
    splits = np.zeros(n, dtype=np.intp)  # integral i uses columns [0, 1 + 2 * splits[i])
    tot_val, tot_err = v, e
    live = np.ones(n, dtype=bool)
    while True:
        tol = tolerance(tot_val)
        over = tot_err > tol
        live &= over.any(axis=0) & (splits < max_subdivisions)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        used = 1 + 2 * splits.max()
        score = tab[_KEY, idx, :used]
        if k > 1:
            score = score + (tab[err_:, idx, :used] / tol[:, idx, None]).max(axis=0)
        col = np.argmax(score, axis=1)
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
            grown = np.zeros((_VAL + 2 * k, n, 2 * cap))
            grown[_KEY, :, cap:] = -np.inf
            grown[:, :, :cap] = tab
            tab = grown
            cap *= 2
        m = idx.size
        rows2 = np.concatenate([idx, idx])
        lo2, hi2 = np.concatenate([pa, mid]), np.concatenate([mid, pb])
        v, e = _eval_panels(f, rows2, lo2, hi2)
        v, e = v.reshape(k, 2 * m), e.reshape(k, 2 * m)
        tot_val[:, idx] += v[:, :m] + v[:, m:] - tab[_VAL:err_, idx, col]
        tot_err[:, idx] += e[:, :m] + e[:, m:] - tab[err_:, idx, col]
        tab[_VAL:, idx, col] = 0.0
        new = 1 + 2 * splits[idx]
        tab[:, rows2, np.concatenate([new, new + 1])] = np.concatenate(([lo2, hi2, key(e)], v, e))
        splits[idx] += 1

    used = 1 + 2 * splits.max()
    split = np.flatnonzero(splits)
    value, error = (np.array([_leaf_sums(field, split, used) for field in tab[fields]])
                    for fields in (slice(_VAL, err_), slice(err_, None)))
    channel_converged = error <= tolerance(value)
    converged = channel_converged.all(axis=0)
    if single:
        value, error, channel_converged = value[0], error[0], channel_converged[0]
    return value, error, channel_converged, 15 + 30 * splits, converged


def _shares(total: int, rows: int) -> np.ndarray:
    """``total`` points split evenly over ``rows`` rows, the first rows taking the remainder."""
    share, extra = divmod(total, rows)
    out = np.full(rows, share, dtype=np.intp)
    out[:extra] += 1
    return out


def _oned(f, spec: QuadratureSpec | None, n: int = 1) -> IntegralResult | IntegralBatch:
    """n integrals over [0, 1] as one ``_lockstep``, each on its own panels.

    ``f(rows, t)`` gets the nodes ``t``, an (m, 15) array whose row i holds
    a panel of integral ``rows[i]``, and returns the values there.  Each
    step, every integral short of max(``spec.rel_tol_outer`` |value|,
    ``spec.abs_tol``) splits its worst panel, so from the second call on
    each open integral gets two panels, 30 nodes.  With n > 1, ``f``
    returns one channel and the call an n-row ``IntegralBatch``, each row
    its integral's value, error, points and convergence.  With n = 1, the values give an
    ``IntegralResult``, and k channels on a leading axis, shape (k, m, 15),
    a k-row ``IntegralBatch``: the channels share the panels, the worst
    channel (error over tolerance) picks the panel to split, each row has
    its own value, error and convergence, and the points are split evenly
    over the rows, so ``evaluations`` is the points ``f`` got.
    """
    spec = spec or DEFAULT_SPEC
    val, err, channel_conv, evals, conv = _lockstep(f, n, spec.rel_tol_outer, spec.abs_tol,
                                                    spec.max_subdivisions)
    if n > 1:
        return IntegralBatch(val, err, evals, conv)
    if val.ndim == 2:
        return IntegralBatch(val[:, 0], err[:, 0], _shares(int(evals[0]), val.shape[0]),
                             channel_conv[:, 0])
    return IntegralResult(float(val[0]), float(err[0]), int(evals[0]), bool(conv[0]))


def _flat(g):
    """The ``_oned`` integrand of one integral whose ``g`` gets a flat array of nodes and
    returns the values there, or k channels of them on a leading axis."""
    def f(rows, t):
        vals = np.asarray(g(t.ravel()), dtype=float)
        return vals.reshape(t.shape if vals.ndim < 2 else vals.shape[:1] + t.shape)

    return f


def integrate_finite(f, a: float, b: float, *,
                     spec: QuadratureSpec | None = None) -> IntegralResult | IntegralBatch:
    """Adaptive integral of a vectorized integrand over the finite [a, b].

    The interval is mapped to [0, 1] by x = a + (b - a) t, so b < a gives the
    negated integral over [b, a] and b == a gives zero.  ``f`` gets a flat
    array of nodes; it returns the values there (an ``IntegralResult``) or
    k channels of them on a leading axis (a k-row ``IntegralBatch``, see
    ``integrate_semi_infinite``).
    """
    _require_finite("a", a)
    _require_finite("b", b)
    width = b - a
    return _oned(_flat(lambda t: np.asarray(f(a + width * t), dtype=float) * width), spec)


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
                            scale: float = 1.0) -> IntegralResult | IntegralBatch:
    """Adaptive integral of a vectorized, decaying integrand over [a, infinity).

    ``scale`` positions the quadrature nodes: half of them land below
    a + scale.  Exponential or power-law decay (1/x^2 or faster) is handled
    by the rational map; slower tails will not converge.

    ``f`` gets a flat array of nodes.  Returning the values there gives an
    ``IntegralResult``.  Returning k channels on a leading axis, shape
    (k, nodes), gives a k-row ``IntegralBatch``: the channels share one node
    set, refinement steers on the worst channel (error over tolerance), and
    ``batch[c]`` is channel c's value, error and convergence, each at the
    call's tolerances.  The points are split evenly over the channels, so
    ``evaluations`` is the points ``f`` got.
    """
    _require_finite("a", a)
    _require_positive("scale", scale)
    return _oned(_flat(_mapped(f, a, scale)), spec)


# Initial outer panels of a b-node table: one per e-fold of b over
# [_TABLE_B_LO / max(z), _TABLE_B_HI / min(z)], where e^{-2 b z} G(b) of
# every z holds its weight, plus the two tails out to b = 0 and b = inf.
_TABLE_B_LO = 1e-2
_TABLE_B_HI = 10.0
# A node with 2 b min(z) above this has e^{-2 b z} < 1e-304 for every z; its
# G(b) is not computed and counts as zero.
_TABLE_MAX_DECAY = 700.0
# z per block of the per-z panel sums, which bounds their temporaries
_TABLE_Z_CHUNK = 128
# Splits of one inner integral of a table.  Smooth G(b) needs about ten; a node
# at a zero of G can never meet a relative tolerance, so the cap bounds its
# cost, and its error estimate, however large, still counts in every row.
_TABLE_INNER_SPLITS = 64
# The inner tolerance of a panel whose weighted inner errors keep a row from
# its tolerance is tightened once, by this factor.
_TABLE_INNER_TIGHTEN = 1e-2
# The share of a row's tolerance that the absolute floors of the inner
# integrals may take, split evenly over the nodes of the call.
_TABLE_INNER_FLOOR = 0.02


def _outer_nodes(b_c: float, lo: np.ndarray, hi: np.ndarray):
    """Half-widths, 1 - x at the nodes x (1 where x rounds to 1), b, and whether x < 1 and b > 0."""
    h = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + h[:, None] * _XK
    onemx = 1.0 - x
    safe = np.where(onemx > 0.0, onemx, 1.0)
    b = b_c * x / safe
    return h, safe, b, (onemx > 0.0) & (b > 0.0)


def _outer_weight(b, z, power):
    """(2 b)^p e^{-2 b z}, formed as one exponential: at p = 0 it is e^{-2 b z} to the
    bit, as 0 log(2 b) is +-0 and x +- 0 is x."""
    return np.exp(power * np.log(2.0 * b) - 2.0 * b * z)


def _greedy_cover(gain, excess):
    """Panels to work on: per column, the fewest largest ``gain`` entries reaching ``excess``."""
    order = np.argsort(-gain, axis=0, kind="stable")
    covered = np.cumsum(np.take_along_axis(gain, order, axis=0), axis=0)
    need = (covered < excess).sum(axis=0) + 1
    pick = np.zeros(gain.shape[0], dtype=bool)
    pick[order[np.arange(gain.shape[0])[:, None] < need]] = True
    return pick


@dataclass(eq=False)
class NodeTable:
    """A b-node table that its caller keeps across ``integrate_nested`` calls.

    A new table is empty.  The first call given it fills it: the outer
    panels (``lo``, ``hi`` in x, and ``tight``, whether a panel's inner
    integrals ran at the tightened tolerance), the map's ``b_c``, at each
    node G and its inner error, both times the map's jacobian (``nodes``,
    shape (2, k, panel, 15)), and whether the node was computed (``done``).
    A later call with the same table forms its rows on these nodes, computes
    only the nodes and panels it adds, and leaves the grown table for the
    next.  G's value at a node does not depend on z, but its inner accuracy
    does: it is set by the rows of the call that computed it (the floors of
    ``_table_rows``), and a later row that weighs the node more redoes its
    panel at the tightened tolerance.  The table belongs to one kernel,
    which the engine cannot check: using it with another kernel is the
    caller's error.  Using it with another ``spec``, ``u_scale`` or channel
    count raises ValueError.  Every row of a call carries a power p (see
    ``integrate_nested``; p = 0 is the potential): the nodes are the same for
    every p, and a row with p >= 1 sets the floors and redoes panels with its
    own tolerance, rel_tol_outer times the integral of its |integrand|.
    ``sums`` forms rows of any z and p on the stored nodes alone.  A call
    given no table fills a new one and drops it.
    """

    spec: QuadratureSpec | None = None
    u_scale: float | None = None
    channels: int | None = None
    b_c: float | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    tight: np.ndarray | None = None
    nodes: np.ndarray | None = None
    done: np.ndarray | None = None
    _summed: tuple | None = field(default=None, init=False, repr=False)  # ``sums``'s, per fill

    def sums(self, z, power=0):
        """The rows int_0^inf db (2 b)^p e^{-2 b z} G(b) summed on the stored nodes alone.

        ``z`` (every entry finite and > 0) is a float, or a 1-D array for a
        one-channel table, or a (channels, n) array, and ``power`` (integers
        p >= 0) broadcasts against it; the result has the shape of ``z``.
        No kernel call and no error estimate: each row is the plain sum of
        h w_j (2 b_j)^p e^{-2 b_j z} G_j jac_j over the table's nodes, so it
        agrees with the call that filled the table to rounding at that
        call's z and is as good as the nodes elsewhere (a node the table never
        computed counts as zero).  A wall search reads its force (p = 1) here
        between calls.
        """
        if self.spec is None:
            raise ValueError("this NodeTable is empty: fill it with integrate_nested first")
        shape = np.shape(z)
        if (shape[:1] != (self.channels,)) if len(shape) == 2 else self.channels != 1:
            raise ValueError(f"z of shape {shape} does not fit a table of "
                             f"{self.channels} channel(s)")
        zs = _as_rows("z", np.reshape(z, -1) if len(shape) == 2 else z).reshape(self.channels, -1)
        power = _as_power(power, shape).reshape(zs.shape)[..., None]
        if self._summed is None or self._summed[0] is not self.nodes:  # filled since
            h, _, b, inside = _outer_nodes(self.b_c, self.lo, self.hi)
            stored = self.done & inside
            self._summed = (self.nodes, -2.0 * b[stored], np.log(2.0 * b[stored]),
                            (h[:, None] * _WK * self.nodes[0])[:, stored])
        # -2 b, log(2 b) and h w G jac (channel, node) of the stored nodes
        _, minus_2b, log_2b, weighted = self._summed
        exponent = minus_2b * zs[..., None] + power * log_2b
        rows = np.einsum("cim,cm->ci", np.exp(exponent), weighted)
        return rows.reshape(shape) if shape else float(rows[0, 0])

    def _require_match(self, spec: QuadratureSpec, u_scale: float, channels: int) -> None:
        for name, theirs, ours in (("spec", self.spec, spec), ("u_scale", self.u_scale, u_scale),
                                   ("channel count", self.channels, channels)):
            if theirs != ours:
                raise ValueError(f"this NodeTable was filled with {name} {theirs!r}, "
                                 f"not {ours!r}")


def _table_rows(kernel, z: np.ndarray, spec: QuadratureSpec, u_scale: float,
                table: NodeTable, power: np.ndarray):
    """(value, error, evaluations, converged), each (k, n), from one b-node table.

    Row (c, i) is int_0^inf db (2 b)^p e^{-2 b z[c, i]} G(b), G(b) = int_0^b
    du kernel(u, b)[c] (a one-channel kernel may omit the channel axis), with
    p = power[c, i] (0 for the potential).  A row's tolerance tau is
    max(rel_tol_outer |V|, abs_tol) for p = 0 and max(rel_tol_outer A,
    abs_tol) for p >= 1, with A the integral of the row's |integrand| (a
    force vanishes at a wall, so |V| cannot scale its tolerance); the
    floors, the steering and ``converged`` use that tau.  The
    outer x in (0, 1) maps to b = b_c x / (1 - x), the whole half-line, with
    first panels even in log b.  The channels of G at a node are one row of
    an inner ``_lockstep`` over t in [0, 1], steered by the worst channel,
    of at most _TABLE_INNER_SPLITS splits: u = b t while b <= u_scale, and
    beyond it u = c t / (1 - (1 - c / b) t), c = u_scale, which still ends at
    u = b but puts half of the nodes below u of order u_scale, where the
    material and atom resonances sit.  That integrand returns shape (k, m,
    15) for every k, a one-channel kernel's values given the channel axis.

    Node j's inner integral in channel c stops at max(rel_tol_inner |G|,
    a_cj), a_cj = theta / N min_i tau_ci / W_cij, where W_cij = h w_j jac_j
    e^{-2 b_j z_ci} is the node's weight in row (c, i), tau_ci =
    max(rel_tol_outer |V_ci|, abs_tol) that row's tolerance from the rows
    V of the table's nodes (the stored ones, and the new ones at their first
    estimate; W and A carry the (2 b)^p of a row with p >= 1), N the nodes the
    call needs and theta ``_TABLE_INNER_FLOOR``.
    The floors thus add at most theta tau_ci to row (c, i), whose error still
    adds every weighted inner error.  A row or weight that is not finite,
    and a tightened panel, give the floor ``spec.abs_tol``.  Floored nodes
    are refined where their integrand carries weight, so their samples may
    never reach u ~ b; one more inner row, the probe, integrates the largest
    new node on the map u = b t, whose first points do, and a kernel that is
    not finite there makes that node NaN, which flags its rows.  The probe
    has the floor inf, so it never refines.

    A row's error adds its panels' QUADPACK estimates and their inner errors
    weighted by e^{-2 b z}.  Each round, a row short of its tolerance splits
    the fewest panels whose estimates cover its excess, when they are more
    than half of it, and redoes once the inner integrals of the fewest panels
    carrying its inner errors at ``_TABLE_INNER_TIGHTEN`` times the
    tolerance, when those are.  A split panel's left half replaces it and
    its right half is appended; a split or redone panel restarts from zero
    nodes, and the round computes the nodes the table lacks and forms every
    panel's sums again from the stored nodes.  A row that neither can help
    (at a sign change of U) stops steering and ends unconverged; the panels
    never exceed ``spec.max_subdivisions``.  A filled ``table`` gives the
    first panels, its b_c and its nodes (a node it lacks is computed), and the
    table, empty or filled, ends holding this call's panels and nodes;
    ``evaluations`` counts this call's kernel points only.  A stored node
    floored for an earlier call's rows carries its inner error into these
    rows, and the redo path computes it again where that error keeps a row
    from its tolerance.
    """
    k, n = z.shape
    z_min = float(z.min())
    flat_power = power.reshape(-1)  # per (channel, z) column
    if table.spec is not None:
        table._require_match(spec, u_scale, k)
        b_c, lo, hi, tight = table.b_c, table.lo, table.hi, table.tight
        nodes, done = table.nodes.copy(), table.done.copy()  # filled in place below
    else:
        s_lo = math.log(_TABLE_B_LO / float(z.max()))
        s_hi = math.log(_TABLE_B_HI / z_min)
        s_c = 0.5 * (s_lo + s_hi)
        b_c = math.exp(s_c)
        cuts = min(math.ceil(s_hi - s_lo) + 1, spec.max_subdivisions - 1)
        s_cut = np.linspace(s_lo, s_hi, cuts) if cuts > 1 else np.full(cuts, s_c)
        edges = np.concatenate([[0.0], 1.0 / (1.0 + np.exp(s_c - s_cut)), [1.0]])
        lo, hi = edges[:-1], edges[1:]
        tight = np.zeros(lo.size, dtype=bool)
        nodes = np.zeros((2, k, lo.size, _XK.size))
        done = np.zeros(nodes.shape[2:], dtype=bool)
    evals = 0

    def tolerance(value, floor):
        """max(rel_tol_outer s, abs_tol) per row, s = |value|, or in a row with p >= 1
        the integral of |integrand|, the rounding ``floor`` over _ROUND_OFF."""
        scale = np.where(flat_power > 0, floor / _ROUND_OFF, np.abs(value))
        return np.maximum(spec.rel_tol_outer * scale, spec.abs_tol)

    def panels():
        """(value, outer estimate, weighted inner error, rounding floor) x panel x row.

        The nodes of the table that these rows need and ``done`` lacks are
        computed into ``nodes`` (G and its inner error, times the jacobian)
        and marked in ``done``, in place; then the sums of every panel are
        formed again from the stored nodes.
        """
        nonlocal evals
        h, safe, b, inside = _outer_nodes(b_c, lo, hi)
        needed = inside & (2.0 * b * z_min <= _TABLE_MAX_DECAY)
        busy = needed & ~done
        if busy.any():
            # one inner row more: the largest new node on the map u = b t, whose
            # first points reach u ~ b, where a floored node's refinement may
            # never go; a kernel that is not finite there makes that node NaN
            bb = b[busy]
            top = int(np.argmax(bb))
            bb = np.append(bb, bb[top])[:, None]
            c = np.minimum(bb, u_scale)
            c[-1] = bb[-1]
            bend = 1.0 - c / bb

            def integrand(r, t):
                d = 1.0 - bend[r] * t
                vals = kernel(c[r] * t / d, bb[r]) * (c[r] / (d * d))
                return vals.reshape((k,) + t.shape)

            hw = h[:, None] * _WK
            jac = b_c / (safe[busy] * safe[busy])
            log_share = math.log(_TABLE_INNER_FLOOR / needed.sum()) - np.log(hw[busy] * jac)
            unfloored = np.broadcast_to(tight[:, None], b.shape)[busy]  # a tightened panel

            def floors(first):
                """theta / N of the least tol / weight over the rows, from the first estimates."""
                val = np.where(done, nodes[0], 0.0)
                val[:, busy] = first[:, :-1] * jac
                val = (val * hw)[:, needed]
                lowest = np.full((k, bb.size - 1), np.inf)  # least log(tol / weight)
                for j in range(0, n, _TABLE_Z_CHUNK):  # bounds the (channel, z, node) temporaries
                    cols = slice(j, j + _TABLE_Z_CHUNK)
                    zj, pj = z[:, cols, None], power[:, cols, None]
                    weight = _outer_weight(b[needed], zj, pj)
                    row = np.einsum("cij,cj->ci", weight, val)
                    # a row with p >= 1 scales on its |integrand|
                    row = np.where(pj[..., 0] > 0, np.einsum("cij,cj->ci", weight, np.abs(val)),
                                   row)
                    log_tol = np.log(np.maximum(spec.rel_tol_outer * np.abs(row), spec.abs_tol))
                    log_tol = (log_tol[:, :, None] + 2.0 * bb[:-1, 0] * zj
                               - pj * np.log(2.0 * bb[:-1, 0]))
                    lowest = np.minimum(lowest, log_tol.min(axis=1))
                floor = np.exp(np.minimum(lowest + log_share, _TABLE_MAX_DECAY))  # finite
                floor = np.where(np.isfinite(lowest) & ~unfloored,
                                 np.maximum(floor, spec.abs_tol), spec.abs_tol)
                return np.append(floor, np.full((k, 1), np.inf), axis=1)  # the probe's

            rel = np.where(tight, spec.rel_tol_inner * _TABLE_INNER_TIGHTEN, spec.rel_tol_inner)
            rel = np.append(np.broadcast_to(rel[:, None], b.shape)[busy], spec.rel_tol_inner)
            g, g_err, _, inner_evals, _ = _lockstep(
                integrand, bb.size, rel, floors, min(spec.max_subdivisions, _TABLE_INNER_SPLITS))
            evals += int(inner_evals.sum())
            g, probe = g[..., :-1], g[..., -1]
            g[..., top] = np.where(np.isfinite(probe), g[..., top], np.nan)
            nodes[0][:, busy], nodes[1][:, busy] = g * jac, g_err[..., :-1] * jac
            done[busy] = True
        # an earlier call's node decayed here counts as zero
        val_j, err_j = np.where(needed, nodes, 0.0)
        out = np.empty((4, lo.size, k * n))
        for ch in range(k):
            for j in range(0, n, _TABLE_Z_CHUNK):  # bounds the (panel, z, node) temporaries
                cols = slice(ch * n + j, ch * n + min(j + _TABLE_Z_CHUNK, n))
                decay = _outer_weight(b[:, None, :], z[ch, j:j + _TABLE_Z_CHUNK, None],
                                      power[ch, j:j + _TABLE_Z_CHUNK, None])
                out[0, :, cols], out[1, :, cols], resabs = _estimate(
                    val_j[ch, :, None, :] * decay, h[:, None])
                out[2, :, cols] = h[:, None] * _rowdot(err_j[ch, :, None, :] * decay, _WK)
                out[3, :, cols] = _ROUND_OFF * resabs
        return out

    sums = panels()
    while True:
        _, outer, inner, floor = sums
        tot_val, tot_outer, tot_inner, tot_floor = sums.sum(axis=1)
        tol = tolerance(tot_val, tot_floor)
        short = tot_outer + tot_inner > tol
        mid = 0.5 * (lo + hi)
        splittable = (lo < mid) & (mid < hi)
        split_rows = np.flatnonzero(short & (tot_outer > 0.5 * tol) & (tot_floor < 0.25 * tol))
        redo_rows = np.flatnonzero(short & (tot_inner > 0.5 * tol))
        split = np.zeros(lo.size, dtype=bool)
        if split_rows.size and splittable.any():
            gain = np.where(splittable[:, None], outer[:, split_rows] - floor[:, split_rows], 0.0)
            split = _greedy_cover(gain, tot_outer[split_rows] - 0.25 * tol[split_rows]) & splittable
            idx = np.flatnonzero(split)
            room = spec.max_subdivisions - lo.size
            if idx.size > room:  # the budget keeps the panels worst for some row
                worst = (gain[idx] / tol[split_rows]).max(axis=1)
                split[:] = False
                split[idx[np.argsort(-worst, kind="stable")[:room]]] = True
        redo = np.zeros(lo.size, dtype=bool)
        if redo_rows.size and not tight.all():
            gain = np.where(tight[:, None], 0.0, inner[:, redo_rows])
            redo = _greedy_cover(gain, tot_inner[redo_rows] - 0.25 * tol[redo_rows]) & ~tight
        if not (split.any() or redo.any()):
            break
        # a split panel's left half replaces it and its right half is appended; a
        # split or redone panel restarts from zero nodes, so no parent value stays
        # at a node that the child does not need
        restart = split | redo
        nodes[:, :, restart], done[restart] = 0.0, False
        lo, hi = (np.concatenate([lo, mid[split]]),
                  np.concatenate([np.where(split, mid, hi), hi[split]]))
        tight, done = (np.concatenate([a, a[split]]) for a in (tight | redo, done))
        nodes = np.concatenate([nodes, nodes[:, :, split]], axis=2)
        sums = panels()

    table.spec, table.u_scale, table.channels, table.b_c = spec, u_scale, k, b_c
    table.lo, table.hi, table.tight, table.nodes, table.done = lo, hi, tight, nodes, done
    value, error = (np.array([math.fsum(col) for col in part.T.tolist()])
                    for part in (sums[0], sums[1] + sums[2]))
    converged = error <= tolerance(value, sums[3].sum(axis=0))
    return tuple(field.reshape(k, n)
                 for field in (value, error, _shares(evals, k * n), converged))


def _as_power(power, shape) -> np.ndarray:
    """``power`` as non-negative integers broadcast to ``shape``."""
    p = np.asarray(power)
    if p.dtype.kind not in "iu" or p.min(initial=0) < 0:  # bools are kind "b"
        raise ValueError(f"power must be integers >= 0, got {power!r}")
    try:
        return np.broadcast_to(p, shape)
    except ValueError:
        raise ValueError(f"power of shape {p.shape} does not broadcast to z's "
                         f"{shape}") from None


def integrate_nested(kernel, *, z, spec: QuadratureSpec | None = None,
                     u_scale: float = 1.0, table: NodeTable | None = None, power=0):
    """Integral of e^{-2 b z} kernel(u, b) over u >= 0, b >= u, for each z, from one table.

    A float ``z`` returns an ``IntegralResult``, a 1-D array an
    ``IntegralBatch``.  A 2-D ``z`` of shape (k, n) is k channels: the kernel
    returns shape (k, *broadcast), channel c is integrated at ``z[c]``, and
    entry c of the 2-D ``IntegralBatch`` returned is channel c's.  The
    table's kernel points, each counted once however many channels it
    carries, are split evenly over the rows (the first rows take the
    remainder), so ``evaluations`` sums to the points the kernel got.
    ``u_scale``, finite and > 0, is the frequency scale of the kernel's
    resonances, the knee of the table's inner map.

    Without ``table``, or with an empty ``NodeTable``, the call builds its
    table from nothing (in a new ``NodeTable`` that it drops), and an empty
    ``table`` keeps it.  With a filled one, the rows are first formed on its
    nodes (G's value does not depend on z; its inner accuracy, set by the
    rows of the call that computed it, is tightened where these rows need
    more), and only the nodes and panels the rows still need cost kernel
    points, so ``evaluations`` counts this call's points alone.  The rows then agree with a table-free call within
    their errors, not bit for bit.

    ``power``, integers p >= 0 broadcast against ``z``, weighs each row's
    outer integrand by (2 b)^p: the row is then (-d/dz)^p of the p = 0 row,
    so p = 1 is the force F = -dU/dz and p = 2 is d^2U/dz^2.  A row with
    p >= 1 meets max(rel_tol_outer A, abs_tol), A the integral of its
    |integrand|, not rel_tol_outer times its own |value|: a force vanishes
    at a wall, where no relative tolerance of its value can be met.  Rows
    with p = 0 meet the usual tolerance.  Every row is weighed the same way,
    as e^{p log(2 b) - 2 b z}; at p = 0, 0 log(2 b) is +-0 and x +- 0 is x,
    so the weight is e^{-2 b z} to the bit and a call whose every p is 0 is
    the call without ``power``.
    """
    spec = spec or DEFAULT_SPEC
    _require_positive("u_scale", u_scale)
    shape = np.shape(z)
    if len(shape) > 2:
        raise ValueError(f"z must be a float, a 1-D or a 2-D array, got shape {shape}")
    two_d = len(shape) == 2  # a bad entry of a 2-D z is named by its flat index
    zs = _as_rows("z", np.reshape(z, -1) if two_d else z).reshape(shape if two_d else (1, -1))
    power = _as_power(power, shape).reshape(zs.shape)
    fields = _table_rows(kernel, zs, spec, u_scale, table or NodeTable(), power) if zs.size else (
        np.zeros(zs.shape), np.zeros(zs.shape), np.zeros(zs.shape, dtype=np.intp),
        np.zeros(zs.shape, dtype=bool))
    batch = IntegralBatch(*fields)  # (k, n): a 1-D z is its one channel, a float one row
    return batch if len(shape) == 2 else batch[0] if shape else batch[0][0]

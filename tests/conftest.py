import contextlib
import dataclasses
import functools
import heapq
import math
import warnings

import numpy as np
import pytest

import vdwlayers as v
from vdwlayers import perturbation, potential
from vdwlayers.asymptotics import _WALL_POSITION_REL_TOL
from vdwlayers.quadrature import (_EPS, _WG, _WK, _XK, QuadratureSpec, _as_rows, _lockstep,
                                  _mapped)


@pytest.fixture(scope="session")
def atom():
    return v.AtomModel.two_level()


def material(wpe=0.0, wte=1.0, ge=0.0, wpm=0.0, wtm=1.0, gm=0.0):
    electric = [v.Resonance(wpe, wte, ge)] if wpe else []
    magnetic = [v.Resonance(wpm, wtm, gm)] if wpm else []
    return v.MaterialModel(electric=electric, magnetic=magnetic)


def fig2_material(mu0=5.0, ge=0.001, gm=0.001, wtm=1.0):
    """Two-level-atom plate parameters used throughout: electric resonance at
    1.03 with plasma 0.75; magnetic resonance strength set by the target mu(0)."""
    wpm = wtm * math.sqrt(mu0 - 1.0) if mu0 > 1.0 else 0.0
    return material(wpe=0.75, wte=1.03, ge=ge, wpm=wpm, wtm=wtm, gm=gm)


def constant_material(eps0=1.0, mu0=1.0, knee=1e8):
    """Nearly dispersion-free medium: response constant for u << knee."""
    electric = [v.Resonance(knee * math.sqrt(eps0 - 1.0), knee)] if eps0 > 1.0 else []
    magnetic = [v.Resonance(knee * math.sqrt(mu0 - 1.0), knee)] if mu0 > 1.0 else []
    return v.MaterialModel(electric=electric, magnetic=magnetic)


# The three substitutions of the nested engine, each an exact change of variables:
#   nonretarded   int_0^inf du int_u^inf db F(u, b, z)
#   direct        int_0^inf du int_0^inf dq (q/b) F(u, b, z),  b = hypot(u, q)
#   retarded      int_1^inf dv int_0^inf du u F(u, u v, z)
NESTED_MODES = ("direct", "retarded", "nonretarded")


def _point_map(kernel, mode: str, u_scale: float):
    """Inner integrand of ``mode`` on [0, 1) for columns of outer nodes p, z and map scales."""
    if mode == "nonretarded":  # p = u, inner variable b on [u, inf)
        def point_map(u, t, z, b_scale):
            return _mapped(lambda b: kernel(u, b, z), u, b_scale)(t)
    elif mode == "direct":  # p = u, inner variable q on [0, inf)
        def point_map(u, t, z, b_scale):
            def fq(q):
                b = np.hypot(u, q)
                return (q / b) * kernel(u, b, z)
            return _mapped(fq, 0.0, b_scale)(t)
    else:  # retarded: p = v, inner variable u on [0, inf)
        def point_map(v, t, z, b_scale):
            return _mapped(lambda u: u * kernel(u, u * v, z), 0.0,
                           np.minimum(u_scale, b_scale / v))(t)
    return point_map


def _nested_rows(kernel, mode: str, z: np.ndarray, spec: QuadratureSpec, u_scale: float):
    """(value, error, evaluations, converged) per entry of ``z``, all in ``mode``.

    Each z is one row of the outer ``_lockstep``, with its own outer map and
    inner map scale 0.5 / z; every inner integral of one outer step, over all
    rows, is one inner ``_lockstep`` batch.  The outer integrand has two
    channels: the inner values, which steer, and the inner errors, whose
    tolerance never binds, integrated on the same panels.
    """
    n = z.size
    b_scale = 0.5 / z
    point_map = _point_map(kernel, mode, u_scale)
    if mode == "retarded":
        outer_a, outer_scale = 1.0, np.ones(n)
    else:
        outer_a, outer_scale = 0.0, np.minimum(u_scale, b_scale)
    evals = np.zeros(n, dtype=np.intp)
    inner_ok = np.ones(n, dtype=bool)

    def outer(rows, t):
        nodes = (outer_a + outer_scale[rows, None] * t / (1.0 - t)).reshape(-1, 1)
        owner = np.repeat(rows, t.shape[1])  # the row of each inner integral
        z_col, scale_col = z[owner, None], b_scale[owner, None]
        vals, errs, _, inner_evals, conv = _lockstep(
            lambda r, s: point_map(nodes[r], s, z_col[r], scale_col[r]), nodes.shape[0],
            spec.rel_tol_inner, spec.abs_tol, spec.max_subdivisions,
        )
        np.add.at(evals, owner, inner_evals)
        inner_ok[owner[~conv]] = False
        jac = outer_scale[rows, None] / (1.0 - t) ** 2
        return np.stack([vals.reshape(t.shape) * jac, errs.reshape(t.shape) * jac])

    (val, aux), (err, _), _, _, conv = _lockstep(
        outer, n, np.array([[spec.rel_tol_outer], [math.inf]]), spec.abs_tol,
        spec.max_subdivisions,
    )
    return val, err + aux, evals, conv & inner_ok


def decayed(kernel):
    """F(u, b, z) = kernel(u, b) e^{-2 b z}: the integrand ``integrate_nested`` integrates."""
    return lambda u, b, z: kernel(u, b) * np.exp(-2.0 * b * z)


def nested_oracle(kernel, *, z, spec=None, u_scale=1.0, mode):
    """``integrate_nested`` on the nested engine in substitution ``mode``: the table's oracle.

    The kernel takes (u, b), as the table's does; the oracle integrates
    F = kernel(u, b) e^{-2 b z} (``decayed``), and a test whose F depends on
    z in another way passes it to ``_nested_rows`` directly.  Each z is one
    row of the outer ``_lockstep``, refined on its own, so an entry of an
    array equals the float call exactly (z also sets each row's inner map
    scale 0.5 / z).  All inner integrals of one outer step, over every row,
    are refined together: the kernel gets ``u`` of shape (m, 1) and ``b`` of
    shape (m, 15) in the ``nonretarded`` and ``direct`` modes, both (m, 15)
    in ``retarded`` mode.  A row's error adds its outer panel estimate and
    its integrated inner estimates; it converges only if every inner
    integral did.  ``u_scale`` is the outer map scale.  A float ``z`` returns
    an ``IntegralResult``, a 1-D array an ``IntegralBatch``; a 2-D ``z`` of k
    channels, as ``integrate_nested`` takes it, runs each channel on its own
    and returns a 2-D ``IntegralBatch``.
    """
    if np.ndim(z) == 2:  # channel c at the positions z[c], each integrated alone
        channels = [nested_oracle(lambda u, b, c=c: kernel(u, b)[c], z=zc, spec=spec,
                                  u_scale=u_scale, mode=mode) for c, zc in enumerate(z)]
        return v.IntegralBatch(*(np.stack([getattr(ch, field.name) for ch in channels])
                                 for field in dataclasses.fields(v.IntegralBatch)))
    zs = _as_rows("z", z)
    rows = _nested_rows(decayed(kernel), mode, zs, spec or v.DEFAULT_SPEC, u_scale)
    batch = v.IntegralBatch(*rows)
    return batch[0] if np.ndim(z) == 0 else batch


def engine(mode):
    """The library's ``integrate_nested`` for ``mode`` None, else ``nested_oracle`` in ``mode``."""
    return v.integrate_nested if mode is None else functools.partial(nested_oracle, mode=mode)


@contextlib.contextmanager
def on_engine(mode):
    """Inside the block, the potentials and expansion terms integrate on ``engine(mode)``."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (potential, perturbation):
            mp.setattr(module, "integrate_nested", engine(mode))
        yield


def oracle_mode(z):
    """The substitution of a reference at z: (u, b) below one reduced length, (u, v) above."""
    return "nonretarded" if z < 1.0 else "retarded"


@contextlib.contextmanager
def tight_nested(z, spec=None):
    """The reference of a table row at z: the nested oracle at 100x tighter tolerances.

    Inside the block the potentials and expansion terms run on
    ``nested_oracle`` in ``oracle_mode(z)``; the block gets ``spec`` (the
    default spec if None) with both tolerances divided by 100.
    """
    spec = spec or v.DEFAULT_SPEC
    with on_engine(oracle_mode(z)):
        yield dataclasses.replace(spec, rel_tol_inner=spec.rel_tol_inner / 100.0,
                                  rel_tol_outer=spec.rel_tol_outer / 100.0)


@pytest.fixture
def oned_calls(monkeypatch):
    """The result of each ``asymptotics.integrate_semi_infinite`` call of the test, in order."""
    calls = []
    semi_infinite = v.asymptotics.integrate_semi_infinite

    def recording(*args, **kwargs):
        calls.append(semi_infinite(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(v.asymptotics, "integrate_semi_infinite", recording)
    return calls


@contextlib.contextmanager
def recorded_nested(module):
    """Inside the block, each ``integrate_nested`` call of ``module`` is recorded.

    The list yielded gets one dict per call: its ``kernel``, its keyword
    arguments ``kwargs``, the ``batch`` it returned, and the ``calls`` and
    ``points`` the kernel got.
    """
    records = []

    def recording(kernel, **kwargs):
        record = {"kernel": kernel, "kwargs": kwargs, "calls": 0, "points": 0}

        def counted(u, b):
            record["calls"] += 1
            record["points"] += np.broadcast(u, b).size
            return kernel(u, b)

        record["batch"] = v.integrate_nested(counted, **kwargs)
        records.append(record)
        return record["batch"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_nested", recording)
        yield records


def assert_rows_within_errors_of_the_oracle(record, spec=None):
    """Every row of a recorded 2-D call lies within its and the oracle's errors of it.

    Each (channel, z) runs alone on ``nested_oracle`` at 100x tighter
    tolerances than ``spec`` (the default spec if None), in
    ``oracle_mode(z)``.  The oracle's error counts too: far out (z ~ 200)
    its retarded substitution is the less accurate of the two.
    """
    spec = spec or v.DEFAULT_SPEC
    tight = dataclasses.replace(spec, rel_tol_inner=spec.rel_tol_inner / 100.0,
                                rel_tol_outer=spec.rel_tol_outer / 100.0)
    kernel, kwargs, batch = record["kernel"], record["kwargs"], record["batch"]
    for c, zc in enumerate(np.asarray(kwargs["z"]).tolist()):
        for i, z in enumerate(zc):
            row = batch[c][i]
            ref = nested_oracle(lambda u, b: kernel(u, b)[c], z=z, spec=tight,
                                u_scale=kwargs["u_scale"], mode=oracle_mode(z))
            assert row.converged and ref.converged, (c, z)
            assert abs(row.value - ref.value) <= row.error + ref.error, (c, z, row, ref)


# The interior-atom stack of the benchmark's multilayer-scan workload: fig2
# plates (mu(0) = 5) outside two films, the atom in the 6.0 vacuum gap
MULTILAYER_SCAN_Z = np.linspace(0.5, 5.5, 5)


def multilayer_scan_stack(z=MULTILAYER_SCAN_Z):
    plate, film = fig2_material(mu0=5.0), material(wpe=1.5, wte=1.2, ge=0.001)
    layers = ((plate, math.inf), (v.VACUUM, 0.5), (film, 0.2), (v.VACUUM, 6.0), (film, 0.3),
              (v.VACUUM, 1.0), (plate, math.inf))
    return v.LayerStack(tuple(v.Layer(m, d) for m, d in layers), 3, z)


def halfspace_stack(mat, z):
    return v.LayerStack(
        layers=(v.Layer(mat, math.inf), v.Layer(v.VACUUM, math.inf)),
        atom_layer=1,
        atom_position=z,
    )


def brute_force_2d(kernel, z, n=2000, u_scale=1.0):
    """Independent trapezoid oracle for int_0^inf du int_u^inf db kernel(u, b) e^{-2 b z}.

    Both semi-infinite directions are mapped onto the unit square by the same
    rational transform the adaptive engine uses; the trapezoid rule is applied
    on an (n+1) x (n+1) grid with the decayed outer boundary set to zero.
    """
    su = min(u_scale, 0.5 / z)
    sb = 0.5 / z
    t = np.linspace(0.0, 1.0, n + 1)
    r = np.linspace(0.0, 1.0, n + 1)
    f = np.zeros((n + 1, n + 1))
    integrand = decayed(kernel)
    tt = t[:-1]
    uu = su * tt / (1.0 - tt)
    ju = su / (1.0 - tt) ** 2
    block = 200
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        u_col = uu[lo:hi][:, None]
        rr = r[None, :-1]
        b = u_col + sb * rr / (1.0 - rr)
        jb = sb / (1.0 - rr) ** 2
        with np.errstate(invalid="ignore"):
            vals = integrand(np.broadcast_to(u_col, b.shape), b, z) * ju[lo:hi][:, None] * jb
        f[lo:hi, :-1] = np.nan_to_num(vals, nan=0.0)  # only the measure-zero corner
    # np.trapz is gone in numpy 2.4; look it up only where trapezoid is missing (numpy < 2.0)
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return trapz(trapz(f, r, axis=1), t)


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


def adaptive_heap(f, a, b, rel_tol, abs_tol, max_subdivisions):
    """Worst-first panel bisection on a heap, one 15-node panel per integrand call.

    The scalar oracle for ``quadrature._lockstep``: the same QUADPACK panel
    rule and refinement order, written one panel at a time.  Returns
    (value, error, evals, converged).
    """
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_wall(potential, z_lo=1e-3, z_hi=1e2, samples=60):
    """Serial golden-section wall search: the oracle for the batched rounds of ``locate_wall``.

    The same log-spaced scan as one array call, then golden-section search
    with one float potential call per step between the maximum's neighbours
    until the bracket is at most ``_WALL_POSITION_REL_TOL`` times its
    midpoint, and a last call at the bracket's midpoint for the height.
    Returns a ``WallEstimate`` or None, with the ten-times-the-error rule.
    """
    zs = np.geomspace(z_lo, z_hi, samples)
    values = []
    for z, res in zip(zs.tolist(), potential(zs)):
        if not res.converged:
            warnings.warn(f"skipping z = {z:.4g}: quadrature did not converge", stacklevel=2)
            continue
        values.append((z, res))
    if not values:
        raise RuntimeError("no scan point converged")

    idx = max(range(len(values)), key=lambda i: values[i][1].value)
    best_z, best = values[idx]
    if best.value <= 0.0:
        return None

    def refined(z):
        res = potential(z)
        if not res.converged:
            raise RuntimeError(f"wall refinement: quadrature did not converge at z = {z:.6g}")
        return res

    lo = values[idx - 1][0] if idx > 0 else best_z
    hi = values[idx + 1][0] if idx + 1 < len(values) else best_z
    if lo < hi:
        a, b = lo, hi
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc = refined(c).value
        fd = refined(d).value
        while (b - a) > _WALL_POSITION_REL_TOL * 0.5 * (a + b):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = refined(c).value
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = refined(d).value
        best_z = 0.5 * (a + b)
        best = refined(best_z)

    if best.value <= 10.0 * abs(best.error):
        return None
    return v.WallEstimate(best_z, best.value, "numeric-scan")


def c4_bracket_integral(eps0, mu0, spec=None):
    """The static C4 bracket as one adaptive lockstep batch: the oracle for ``_c4_bracket``.

    One integral per entry of the equal-length 1-D arrays ``eps0`` and
    ``mu0``, all refined together by ``quadrature._lockstep`` at rel 1e-10
    and an absolute floor of max(spec.abs_tol, 1e-14), on t in [0, 1] where
    the integrand is bounded and smooth.  A row that does not converge
    raises RuntimeError naming its eps0 and mu0.
    """
    eps0 = np.asarray(eps0, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    em = eps0 * mu0 - 1.0

    def g(rows, t):
        e, m = eps0[rows, None], mu0[rows, None]
        h = np.sqrt(1.0 + em[rows, None] * t * t)
        return (2.0 - t * t) * (e - h) / (e + h) - t * t * (m - h) / (m + h)

    # the integrand is O(1)-bounded, so an absolute floor is meaningful here;
    # near the attraction/repulsion border the integral itself crosses zero
    base = spec or v.DEFAULT_SPEC
    value, error, _, _, converged = _lockstep(g, eps0.size, 1e-10, max(base.abs_tol, 1e-14),
                                              base.max_subdivisions)
    if not converged.all():
        i = int(np.flatnonzero(~converged)[0])
        raise RuntimeError(f"quadrature for the long-distance coefficient at "
                           f"eps0={float(eps0[i])!r}, mu0={float(mu0[i])!r} did not converge "
                           f"(error estimate {error[i]:.3e})")
    return value

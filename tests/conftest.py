import dataclasses
import heapq
import math

import numpy as np
import pytest

import vdwlayers as v
from vdwlayers.quadrature import _EPS, _WG, _WK, _XK


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


def tight_nested(z, spec=None):
    """``spec`` at 100x tighter tolerances on the nested engine: the reference of a table row.

    The substitution follows z as the nested engine's old default did: (u, b)
    below one reduced length, (u, v) from there on.
    """
    spec = spec or v.DEFAULT_SPEC
    return dataclasses.replace(spec, rel_tol_inner=spec.rel_tol_inner / 100.0,
                               rel_tol_outer=spec.rel_tol_outer / 100.0,
                               mode="nonretarded" if z < 1.0 else "retarded")


def halfspace_stack(mat, z):
    return v.LayerStack(
        layers=(v.Layer(mat, math.inf), v.Layer(v.VACUUM, math.inf)),
        atom_layer=1,
        atom_position=z,
    )


def brute_force_2d(kernel, z, n=2000, u_scale=1.0):
    """Independent trapezoid oracle for int_0^inf du int_u^inf db F(u, b, z).

    Both semi-infinite directions are mapped onto the unit square by the same
    rational transform the adaptive engine uses; the trapezoid rule is applied
    on an (n+1) x (n+1) grid with the decayed outer boundary set to zero.
    """
    su = min(u_scale, 0.5 / z)
    sb = 0.5 / z
    t = np.linspace(0.0, 1.0, n + 1)
    r = np.linspace(0.0, 1.0, n + 1)
    f = np.zeros((n + 1, n + 1))
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
            vals = kernel(np.broadcast_to(u_col, b.shape), b, z) * ju[lo:hi][:, None] * jb
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

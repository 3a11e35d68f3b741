import dataclasses
import math

import numpy as np
import pytest

import vdwlayers as v

from conftest import brute_force_2d, fig2_material


def test_exponential_moment():
    res = v.integrate_semi_infinite(lambda b: b * b * np.exp(-2.0 * b), 0.0, scale=0.5)
    assert res.converged
    assert res.value == pytest.approx(0.25, rel=1e-10)
    assert abs(res.value - 0.25) <= res.error


def test_lorentzian_tail():
    res = v.integrate_semi_infinite(lambda u: 1.0 / (1.0 + u * u), 0.0, scale=1.0)
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_mirror_static_bracket():
    # perfect-mirror long-distance bracket: (2/v^2 - 1/v^4) + 1/v^4 integrates to 2
    res = v.integrate_semi_infinite(
        lambda vv: (2.0 / vv**2 - 1.0 / vv**4) + 1.0 / vv**4, 1.0, scale=1.0
    )
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_finite_interval():
    res = v.integrate_finite(lambda x: np.sin(x), 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_converged_flag_honors_tolerance():
    res = v.integrate_semi_infinite(lambda u: np.exp(-u), 0.0, scale=1.0)
    assert res.converged
    assert res.error <= max(v.DEFAULT_SPEC.rel_tol_outer * abs(res.value),
                            v.DEFAULT_SPEC.abs_tol)


def test_subdivision_budget_reports_nonconvergence():
    spec = v.QuadratureSpec(rel_tol_outer=1e-14, rel_tol_inner=1e-14, max_subdivisions=2)
    res = v.integrate_semi_infinite(lambda u: 1.0 / (1.0 + u * u), 0.0, spec=spec, scale=1.0)
    assert not res.converged


def test_determinism():
    f = lambda u: np.exp(-u) * np.cos(3.0 * u)
    a = v.integrate_semi_infinite(f, 0.0, scale=1.0)
    b = v.integrate_semi_infinite(f, 0.0, scale=1.0)
    assert a == b


def test_error_estimates_are_honest():
    cases = [
        (lambda x: np.exp(-x), 0.0, 1.0, 1.0),
        (lambda x: x * np.exp(-x), 0.0, 1.0, 1.0),
        (lambda x: x**2 * np.exp(-2 * x), 0.0, 0.25, 0.5),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.pi / 2, 1.0),
        (lambda x: 1.0 / (1.0 + x * x) ** 2, 0.0, math.pi / 4, 1.0),
        (lambda x: np.exp(-x) * np.cos(x), 0.0, 0.5, 1.0),
        (lambda x: np.exp(-x) * np.sin(x), 0.0, 0.5, 1.0),
        (lambda x: x * np.exp(-(x * x)), 0.0, 0.5, 1.0),
        (lambda x: 1.0 / (1.0 + x) ** 3, 0.0, 0.5, 1.0),
        (lambda x: 1.0 / x**2, 1.0, 1.0, 1.0),
        (lambda x: 1.0 / x**4, 1.0, 1.0 / 3.0, 1.0),
        (lambda x: np.log(x) / x**3, 1.0, 0.25, 1.0),
        (lambda x: x**3 * np.exp(-x), 0.0, 6.0, 2.0),
        (lambda x: np.exp(-0.01 * x), 0.0, 100.0, 100.0),
        (lambda x: np.exp(-100.0 * x), 0.0, 0.01, 0.01),
        (lambda x: x / (1.0 + x**4), 0.0, math.pi / 4, 1.0),
        (lambda x: np.exp(-x) / (1.0 + x), 0.0, 0.596347362323194, 1.0),
        (lambda x: (1.0 + x * x) ** -1.5, 0.0, 1.0, 1.0),
        (lambda x: x**2 / (1.0 + x**6), 0.0, math.pi / 6, 1.0),
        (lambda x: np.exp(-2.0 * x) * (1 + 2 * x + 2 * x * x), 0.0, 1.5, 0.5),
    ]
    honest = 0
    for f, a, exact, scale in cases:
        res = v.integrate_semi_infinite(f, a, scale=scale)
        assert res.converged, f"case {exact} did not converge"
        assert res.value == pytest.approx(exact, rel=1e-7)
        if abs(res.value - exact) <= res.error:
            honest += 1
    assert honest >= 0.95 * len(cases)


# ---------------------------------------------------------------- nested

def test_nested_exponential_all_modes():
    # int_0^inf du int_u^inf db e^{-2 b z} = 1/(4 z^2)
    for z in (0.5, 1.0, 2.0):
        expected = 0.25 / (z * z)
        for mode in v.MODES:
            res = v.integrate_nested(lambda u, b: np.exp(-2.0 * b * z), z=z, mode=mode)
            assert res.converged
            assert res.value == pytest.approx(expected, rel=1e-8), mode


def test_nested_matches_fixed_order_product_rule():
    # independent check with a 120-point Gauss-Legendre product rule on the
    # mapped square
    z = 1.0
    kernel = lambda u, b: np.exp(-2.0 * b * z) * (b - u) / (1.0 + u * u)
    x, w = np.polynomial.legendre.leggauss(120)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    su = sb = 0.5 / z
    uu = su * t / (1.0 - t)
    ju = su / (1.0 - t) ** 2
    total = 0.0
    for ui, jui, wi in zip(uu, ju, wt):
        bb = ui + sb * t / (1.0 - t)
        jb = sb / (1.0 - t) ** 2
        total += wi * jui * float(np.sum(wt * jb * kernel(ui, bb)))
    res = v.integrate_nested(kernel, z=z)
    assert res.value == pytest.approx(total, rel=1e-7)


def test_nested_zero_kernel():
    res = v.integrate_nested(lambda u, b: np.zeros_like(b + u), z=1.0)
    assert res.value == 0.0
    assert res.converged


def test_nested_error_includes_inner_channel():
    res = v.integrate_nested(lambda u, b: np.exp(-2.0 * b), z=1.0)
    assert res.error > 0.0
    assert abs(res.value - 0.25) <= 10.0 * res.error


def test_brute_force_oracle_closed_form():
    # the oracle itself: int_0^inf du int_u^inf db exp(-2bz) = 1/(4z^2)
    for z in (0.1, 1.0, 10.0):
        oracle = brute_force_2d(lambda u, b: np.exp(-2.0 * b * z), z)
        assert oracle == pytest.approx(1.0 / (4.0 * z * z), rel=1e-6)


def test_halfspace_integrand_against_brute_force(atom):
    # full physics integrand vs the trapezoid oracle on the mapped square
    m = fig2_material()
    z = 1.0

    def kernel(u, b):
        e = m.eps(u)
        mu = m.mu(u)
        bm = np.sqrt(u * u * (e * mu - 1.0) + b * b)
        rs = (mu * b - bm) / (mu * b + bm)
        rp = (e * b - bm) / (e * b + bm)
        pref = 1.0 / (8.0 * math.pi**2)
        return pref * atom.alpha(u) * np.exp(-2.0 * b * z) * (u * u * rs - (2 * b * b - u * u) * rp)

    oracle = brute_force_2d(kernel, z)
    res = v.integrate_nested(kernel, z=z)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-4)


def test_substitution_invariance_halfspace(atom):
    m = fig2_material()
    tol = 10.0 * v.DEFAULT_SPEC.rel_tol_outer
    for z in (1e-3, 1.0, 1e2):
        vals = [
            v.potential_halfspace(atom, m, z,
                                  dataclasses.replace(v.DEFAULT_SPEC, mode=mode)).value
            for mode in v.MODES
        ]
        ref = vals[0]
        for val in vals[1:]:
            assert val == pytest.approx(ref, rel=tol)


def test_mode_policy():
    assert v.resolve_mode(None, 0.5) == "nonretarded"
    assert v.resolve_mode(None, 2.0) == "retarded"
    assert v.resolve_mode("direct", 2.0) == "direct"


def test_spec_validation():
    with pytest.raises(ValueError):
        v.QuadratureSpec(rel_tol_inner=0.0)
    with pytest.raises(ValueError):
        v.QuadratureSpec(mode="sideways")


# ---------------------------------------------------------------- lockstep driver

# Rows of one lockstep batch: (c, p) is c * (1 + x^2)^(-p) on [0, inf), and
# p = None is the constant 1 on [0, 1].  p = 0.5 diverges and exhausts the
# budget; c = 0 is the zero kernel; on the constant every panel of a given
# width has the same error, so refining it is decided by tie-breaking alone.
_ROWS = [(1.0, 1.25), (2.0, 2.0), (1.0, 0.5), (0.0, 1.0), (3.0, 1.5), (1.0, None), (1.0, 3.0)]


@pytest.mark.parametrize("rel_tol, max_subdivisions", [(1e-8, 2000), (1e-8, 40), (1e-15, 25)])
def test_lockstep_matches_scalar_rows(rel_tol, max_subdivisions):
    from vdwlayers.quadrature import _lockstep, _mapped

    spec = v.QuadratureSpec(rel_tol_outer=rel_tol, max_subdivisions=max_subdivisions)
    coef = np.array([[c] for c, _ in _ROWS])
    power = np.array([[p or 1.0] for _, p in _ROWS])
    flat = np.array([[p is None] for _, p in _ROWS])

    seen = [[] for _ in _ROWS]  # nodes of every panel, per row, in evaluation order

    def f(rows, t):
        c, p = coef[rows], power[rows]

        def g(x):
            for r, xr, tr in zip(rows, x, t):
                seen[r].append(tr if flat[r, 0] else xr)
            return c * (1.0 + x * x) ** -p

        return np.where(flat[rows], 1.0, _mapped(g, 0.0, 1.0)(t))

    val, err, _, evals, conv = _lockstep(f, len(_ROWS), rel_tol, spec.abs_tol,
                                         max_subdivisions)
    exhausted = 0
    for i, (c, p) in enumerate(_ROWS):
        nodes = []

        def g(x, c=c, p=p):
            nodes.append(x)
            return np.ones_like(x) if p is None else c * (1.0 + x * x) ** -p

        if p is None:
            ref = v.integrate_finite(g, 0.0, 1.0, spec=spec)
        else:
            ref = v.integrate_semi_infinite(g, 0.0, spec=spec, scale=1.0)
        assert abs(val[i] - ref.value) <= 8 * math.ulp(ref.value), (c, p)
        assert err[i] == pytest.approx(ref.error, rel=1e-6, abs=0.0), (c, p)
        assert evals[i] == ref.evaluations, (c, p)
        assert conv[i] == ref.converged, (c, p)
        # same panels, split in the same order
        assert len(nodes) == len(seen[i]), (c, p)
        assert all(np.array_equal(a, b) for a, b in zip(nodes, seen[i])), (c, p)
        exhausted += ref.evaluations == 15 + 30 * max_subdivisions
    assert exhausted >= 1
    assert val[3] == 0.0 and conv[3]


def test_lockstep_aux_channel_rides_along():
    from vdwlayers.quadrature import _lockstep

    def f(rows, t):
        return np.exp(-t), 2.0 * np.exp(-t)

    val, err, aux, evals, conv = _lockstep(f, 1, 1e-10, 1e-30, 2000, with_aux=True)
    assert conv[0]
    assert val[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert aux[0] == pytest.approx(2.0 * val[0], rel=1e-12)


def test_lockstep_empty_batch():
    from vdwlayers.quadrature import _lockstep

    def f(rows, t):
        raise AssertionError("an empty batch must not call the integrand")

    out = _lockstep(f, 0, 1e-10, 1e-30, 2000, with_aux=True)
    assert [a.shape for a in out] == [(0,)] * 5
    assert out[4].dtype == bool


@pytest.mark.parametrize("mode, counts", [
    ("nonretarded", (24405, 20205, 17565, 17745)),
    ("direct", (28785, 23475, 21015, 21135)),
    ("retarded", (44505, 24075, 10515, 7425)),
])
def test_nested_evaluation_counts_pinned(atom, mode, counts):
    # the lockstep engine refines exactly the panels of the scalar worst-first heap
    spec = dataclasses.replace(v.DEFAULT_SPEC, mode=mode)
    m = fig2_material()
    for z, expected in zip((0.01, 0.1, 1.0, 10.0), counts):
        res = v.potential_halfspace(atom, m, z, spec)
        assert res.converged
        assert res.evaluations == expected, (mode, z)


@pytest.mark.parametrize("mode", v.MODES)
def test_nested_kernel_batch_shapes(mode):
    shapes = []

    def kernel(u, b):
        shapes.append((np.shape(u), np.shape(b)))
        return np.exp(-2.0 * b) * np.ones_like(u)

    res = v.integrate_nested(kernel, z=1.0, mode=mode)
    assert res.converged
    assert sum(np.broadcast_shapes(su, sb)[0] * 15 for su, sb in shapes) == res.evaluations
    for su, sb in shapes:
        assert sb[1] == 15 and su[0] == sb[0]
        assert su[1] == (15 if mode == "retarded" else 1)
    assert res.evaluations / len(shapes) > 15


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_nested_rejects_bad_z(z):
    with pytest.raises(ValueError, match="z must be finite and > 0"):
        v.integrate_nested(lambda u, b: np.exp(-2.0 * b), z=z)

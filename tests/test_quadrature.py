import copy
import math

import numpy as np
import pytest

import vdwlayers as v
from vdwlayers import quadrature

from conftest import (MULTILAYER_SCAN_Z, NESTED_MODES, _nested_rows, adaptive_heap,
                      brute_force_2d, constant_material, engine, fig2_material, material,
                      multilayer_scan_stack, nested_oracle, on_engine, oracle_mode,
                      tight_nested)


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


@pytest.mark.parametrize("a, b, expected", [
    pytest.param(0.0, math.pi, 2.0, id="forward"),
    pytest.param(math.pi, 0.0, -2.0, id="reversed"),
    pytest.param(1.0, 1.0, 0.0, id="empty"),
])
def test_finite_interval(a, b, expected):
    res = v.integrate_finite(lambda x: np.sin(x), a, b)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"a": math.inf}, "a"),
    ({"a": -math.inf}, "a"),
    ({"a": math.nan}, "a"),
    ({"scale": math.inf}, "scale"),
    ({"scale": math.nan}, "scale"),
    ({"scale": 0.0}, "scale"),
])
def test_semi_infinite_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        v.integrate_semi_infinite(lambda x: np.exp(-x), **kwargs)


@pytest.mark.parametrize("a, b, name", [
    (0.0, math.inf, "b"),
    (-math.inf, 0.0, "a"),
    (0.0, math.nan, "b"),
])
def test_finite_rejects_bad_arguments(a, b, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        v.integrate_finite(np.sin, a, b)


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
    # int_0^inf du int_u^inf db e^{-2 b z} = 1/(4 z^2), on the table and each oracle mode
    for z in (0.5, 1.0, 2.0):
        expected = 0.25 / (z * z)
        for mode in (None, *NESTED_MODES):
            res = engine(mode)(lambda u, b: np.ones_like(u + b), z=z)
            assert res.converged
            assert res.value == pytest.approx(expected, rel=1e-8), mode


def test_nested_matches_fixed_order_product_rule():
    # independent check with a 120-point Gauss-Legendre product rule on the
    # mapped square
    z = 1.0
    kernel = lambda u, b: (b - u) / (1.0 + u * u)
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
        total += wi * jui * float(np.sum(wt * jb * kernel(ui, bb) * np.exp(-2.0 * bb * z)))
    res = v.integrate_nested(kernel, z=z)
    assert res.value == pytest.approx(total, rel=1e-7)


def test_nested_zero_kernel():
    res = v.integrate_nested(lambda u, b: np.zeros_like(b + u), z=1.0)
    assert res.value == 0.0
    assert res.converged


def test_nested_error_includes_inner_channel():
    # F ignores z, which no table kernel can express: it goes to the engine directly
    rows = _nested_rows(lambda u, b, z: np.exp(-2.0 * b), "retarded",
                        np.array([1.0]), v.DEFAULT_SPEC, 1.0)
    res = v.IntegralBatch(*rows)[0]
    assert res.error > 0.0
    assert abs(res.value - 0.25) <= 10.0 * res.error


def test_brute_force_oracle_closed_form():
    # the oracle itself: int_0^inf du int_u^inf db exp(-2bz) = 1/(4z^2)
    for z in (0.1, 1.0, 10.0):
        oracle = brute_force_2d(lambda u, b: np.ones_like(u + b), z)
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
        return pref * atom.alpha(u) * (u * u * rs - (2 * b * b - u * u) * rp)

    oracle = brute_force_2d(kernel, z)
    res = v.integrate_nested(kernel, z=z)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-4)


def test_substitution_invariance_halfspace(atom):
    m = fig2_material()
    tol = 10.0 * v.DEFAULT_SPEC.rel_tol_outer
    for z in (1e-3, 1.0, 1e2):
        vals = []
        for mode in NESTED_MODES:
            with on_engine(mode):
                vals.append(v.potential_halfspace(atom, m, z).value)
        ref = vals[0]
        for val in vals[1:]:
            assert val == pytest.approx(ref, rel=tol)


def test_spec_validation():
    with pytest.raises(ValueError):
        v.QuadratureSpec(rel_tol_inner=0.0)
    with pytest.raises(ValueError, match="max_subdivisions must be an integer"):
        v.QuadratureSpec(max_subdivisions=True)  # a bool is a numbers.Integral


@pytest.mark.parametrize("field, value", [
    ("abs_tol", math.inf),
    ("abs_tol", math.nan),
    ("rel_tol_outer", math.inf),
    ("rel_tol_inner", math.nan),
    ("rel_tol_outer", -1.0),
    ("max_subdivisions", 2.5),
    ("max_subdivisions", 0),
    ("max_subdivisions", "100"),
])
def test_spec_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        v.QuadratureSpec(**{field: value})


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
        def h(x, c=c, p=p):
            return np.ones_like(x) if p is None else c * (1.0 + x * x) ** -p

        nodes = []

        def g(x):
            nodes.append(x)
            return h(x)

        if p is None:
            ref = adaptive_heap(g, 0.0, 1.0, rel_tol, spec.abs_tol, max_subdivisions)
            public = v.integrate_finite(h, 0.0, 1.0, spec=spec)
        else:
            ref = adaptive_heap(_mapped(g, 0.0, 1.0), 0.0, 1.0, rel_tol, spec.abs_tol,
                                max_subdivisions)
            public = v.integrate_semi_infinite(h, 0.0, spec=spec, scale=1.0)
        ref_val, ref_err, ref_evals, ref_conv = ref
        # the batch and the public 1-D entry points (one-row batches) against the heap
        for value, error, n_evals, ok in ((val[i], err[i], evals[i], conv[i]),
                                          (public.value, public.error, public.evaluations,
                                           public.converged)):
            assert abs(value - ref_val) <= 8 * math.ulp(ref_val), (c, p)
            assert error == pytest.approx(ref_err, rel=1e-6, abs=0.0), (c, p)
            assert n_evals == ref_evals, (c, p)
            assert ok == ref_conv, (c, p)
        # same panels, split in the same order
        assert len(nodes) == len(seen[i]), (c, p)
        assert all(np.array_equal(a, b) for a, b in zip(nodes, seen[i])), (c, p)
        exhausted += ref_evals == 15 + 30 * max_subdivisions
    assert exhausted >= 1
    assert val[3] == 0.0 and conv[3]


def test_lockstep_channels_share_one_node_set():
    # a smooth channel and a sharp Lorentzian peak at t = 0.3, each with its own
    # tolerance; one call of f evaluates both on the same nodes
    from vdwlayers.quadrature import _lockstep

    width = 1e-3
    seen = []

    def f(rows, t):
        seen.append(t.size)
        return np.stack([np.exp(-t), width / ((t - 0.3) ** 2 + width**2)])

    rel = np.array([[1e-12], [1e-8]])
    val, err, chan_ok, evals, conv = _lockstep(f, 1, rel, 1e-30, 2000)
    exact = [1.0 - math.exp(-1.0), math.atan(0.7 / width) + math.atan(0.3 / width)]
    assert val.shape == err.shape == chan_ok.shape == (2, 1)
    assert conv[0] and chan_ok.all()
    for c in range(2):
        assert err[c, 0] <= rel[c, 0] * abs(val[c, 0])
        assert abs(val[c, 0] - exact[c]) <= err[c, 0]
    assert sum(seen) == evals[0]
    # each channel alone: the peak needs the joint run's nodes, the smooth
    # channel far fewer, and the peak steers as it does alone
    smooth = _lockstep(lambda r, t: f(r, t)[0], 1, 1e-12, 1e-30, 2000)
    peak = _lockstep(lambda r, t: f(r, t)[1], 1, 1e-8, 1e-30, 2000)
    assert smooth[3][0] < peak[3][0] == evals[0]
    assert val[1, 0] == peak[0][0] and err[1, 0] == peak[1][0]
    # a channel whose absolute floor is inf rides along without steering
    both = _lockstep(f, 1, np.array([[1e-12], [1e-8]]), np.array([[np.inf], [1e-30]]), 2000)
    assert both[3][0] == peak[3][0] and both[0][1, 0] == peak[0][0]
    assert abs(both[0][0, 0] - exact[0]) <= 1e-12
    # so does an identically zero channel: rel |0| is 0, and the infinite floor
    # keeps its tolerance inf, not NaN
    zero = _lockstep(lambda r, t: np.stack([np.zeros_like(t), f(r, t)[1]]), 1, 1e-8,
                     np.array([[np.inf], [1e-30]]), 2000)
    assert zero[3][0] == peak[3][0]
    assert zero[0][1, 0] == peak[0][0] and zero[1][1, 0] == peak[1][0]
    assert zero[0][0, 0] == zero[1][0, 0] == 0.0 and zero[2].all() and zero[4][0]


@pytest.mark.parametrize("mode, counts", [
    ("nonretarded", (24405, 20205, 17565, 17745)),
    ("direct", (28785, 23475, 21015, 21135)),
    ("retarded", (44505, 24075, 10515, 7425)),
])
def test_nested_evaluation_counts_pinned(atom, mode, counts):
    # the lockstep engine refines exactly the panels of the scalar worst-first heap
    m = fig2_material()
    for z, expected in zip((0.01, 0.1, 1.0, 10.0), counts):
        with on_engine(mode):
            res = v.potential_halfspace(atom, m, z)
        assert res.converged
        assert res.evaluations == expected, (mode, z)


@pytest.mark.parametrize("mode", [None, *NESTED_MODES])
def test_nested_kernel_batch_shapes(mode):
    shapes = []

    def kernel(u, b):
        shapes.append((np.shape(u), np.shape(b)))
        return np.ones_like(u)

    res = engine(mode)(kernel, z=1.0)
    assert res.converged
    assert sum(np.broadcast_shapes(su, sb)[0] * 15 for su, sb in shapes) == res.evaluations
    for su, sb in shapes:
        if mode is None:  # the library's b-node table: one b per row
            assert su[1] == 15 and sb == (su[0], 1)
        else:
            assert sb[1] == 15 and su[0] == sb[0]
            assert su[1] == (15 if mode == "retarded" else 1)
    assert res.evaluations / len(shapes) > 15


@pytest.mark.parametrize("kind", ["finite", "semi-infinite"])
def test_oned_integrand_batch_shapes(kind):
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return np.exp(-x) * np.cos(3.0 * x)

    if kind == "finite":
        res = v.integrate_finite(f, 0.0, 10.0, spec=v.QuadratureSpec(rel_tol_outer=1e-12))
    else:
        res = v.integrate_semi_infinite(f, 0.0, scale=1.0,
                                        spec=v.QuadratureSpec(rel_tol_outer=1e-12))
    assert res.converged
    assert all(len(s) == 1 and s[0] % 15 == 0 for s in shapes)
    assert sum(s[0] for s in shapes) == res.evaluations
    # the first panel alone, then both halves of each split in one call
    assert shapes[0] == (15,) and len(shapes) > 1
    assert all(s == (30,) for s in shapes[1:])


def _integrate_1d(kind, f, **kwargs):
    if kind == "finite":
        return v.integrate_finite(f, 0.0, 10.0, **kwargs)
    return v.integrate_semi_infinite(f, 0.0, scale=1.0, **kwargs)


_ONED_CHANNELS = (
    lambda x: np.exp(-x) * np.cos(3.0 * x),
    lambda x: x * np.exp(-2.0 * x),
    lambda x: 1.0 / (1.0 + x * x) ** 2,
)


@pytest.mark.parametrize("kind", ["finite", "semi-infinite"])
def test_oned_channels_each_within_their_error_of_their_own_integral(kind):
    points = []

    def f(x):
        points.append(x.size)
        return np.stack([g(x) for g in _ONED_CHANNELS])

    batch = _integrate_1d(kind, f, spec=v.QuadratureSpec(rel_tol_outer=1e-9))
    assert isinstance(batch, v.IntegralBatch) and len(batch) == len(_ONED_CHANNELS)
    assert batch.converged
    assert batch.evaluations == sum(points)  # the probe contract: points the integrand got
    for g, res in zip(_ONED_CHANNELS, batch):
        ref = _integrate_1d(kind, g, spec=v.QuadratureSpec(rel_tol_outer=1e-11))
        assert ref.converged
        assert res.error <= 1e-9 * abs(res.value)
        assert abs(res.value - ref.value) <= res.error


@pytest.mark.parametrize("kind", ["finite", "semi-infinite"])
def test_oned_one_channel_axis_is_the_flat_result_as_one_row(kind):
    g = _ONED_CHANNELS[0]
    flat = _integrate_1d(kind, g)
    assert isinstance(flat, v.IntegralResult)
    batch = _integrate_1d(kind, lambda x: g(x)[None])
    assert isinstance(batch, v.IntegralBatch) and len(batch) == 1
    assert batch[0] == flat


@pytest.mark.parametrize("kind", ["finite", "semi-infinite"])
def test_oned_flags_the_failing_channel_alone(kind):
    # a jump at an irrational point never meets 1e-9 in 10 splits; the smooth
    # channel (constant in the semi-infinite map's t) does on the same nodes
    spec = v.QuadratureSpec(rel_tol_outer=1e-9, max_subdivisions=10)

    def smooth(x):
        return 1.0 / (1.0 + x) ** 2

    batch = _integrate_1d(kind, lambda x: np.stack([smooth(x), (x < 1.0 / math.pi) + 0.0]), spec=spec)
    assert batch.row_converged.tolist() == [True, False]
    assert not batch.converged
    ref = _integrate_1d(kind, smooth, spec=v.QuadratureSpec(rel_tol_outer=1e-11))
    assert abs(batch[0].value - ref.value) <= batch[0].error


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_nested_rejects_bad_z(z):
    with pytest.raises(ValueError, match="z must be finite and > 0"):
        v.integrate_nested(lambda u, b: np.ones_like(u + b), z=z)


@pytest.mark.parametrize("mode", [None, *NESTED_MODES])
def test_nested_batch_rows_equal_float_calls(mode):
    def kernel(u, b):
        return (b - u) / (1.0 + u * u)

    zs = np.array([0.3, 0.99, 1.0, 3.0])
    integrate = engine(mode)
    batch = integrate(kernel, z=zs)
    assert isinstance(batch, v.IntegralBatch) and len(batch) == zs.size
    for z, row in zip(zs.tolist(), batch):
        point = integrate(kernel, z=z)
        if mode is None:
            # the rows share one table, so they only agree within their errors
            # with the float call and the tight nested engine
            with tight_nested(z) as tight:
                ref = nested_oracle(kernel, z=z, spec=tight, mode=oracle_mode(z))
            assert abs(row.value - ref.value) <= row.error, z
            assert abs(point.value - ref.value) <= point.error, z
        else:
            assert row == point, (mode, z)
    again = integrate(kernel, z=zs)
    assert again.values.tobytes() == batch.values.tobytes()
    assert again.errors.tobytes() == batch.errors.tobytes()
    assert batch.evaluations == sum(row.evaluations for row in batch)
    assert batch.converged is True


def test_nested_empty_z_batch():
    def kernel(u, b):
        raise AssertionError("an empty batch must not call the kernel")

    res = v.integrate_nested(kernel, z=np.array([]))
    assert len(res) == 0 and list(res) == []
    assert res.evaluations == 0 and res.converged is True


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_nested_rejects_bad_z_entry(z):
    zs = np.array([0.5, 2.0, z, 1.0])
    with pytest.raises(ValueError, match=rf"z must be finite and > 0, got z\[2\] = {z}$"):
        v.integrate_nested(lambda u, b: np.ones_like(u + b), z=zs)


def test_nested_rejects_z_beyond_two_dimensions():
    # a 2-D z is k channels on one table; three axes have no meaning
    with pytest.raises(ValueError, match="z must be a float, a 1-D or a 2-D array"):
        v.integrate_nested(lambda u, b: np.ones_like(u + b), z=np.ones((2, 2, 2)))


def _decay_kernel(u, b):
    """e^{-u}: the integral at z is 1 / (2 z (1 + 2 z)), 1/6 at z = 1."""
    return np.exp(-u) * np.ones_like(b)


@pytest.mark.parametrize("u_scale", [0.0, -1.0, math.nan, math.inf])
def test_nested_rejects_bad_u_scale(u_scale):
    # the knee of the inner map is a frequency: 0 gave a "converged" 0, -1 gave -inf
    with pytest.raises(ValueError, match=rf"u_scale must be finite and > 0, got {u_scale}$"):
        v.integrate_nested(_decay_kernel, z=1.0, u_scale=u_scale)
    res = v.integrate_nested(_decay_kernel, z=1.0)
    assert res.converged and abs(res.value - 1.0 / 6.0) <= res.error


@pytest.mark.parametrize("z, got", [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"),
                                    ([1.0, -2.0], r"z\[1\] = -2.0")])
def test_table_sums_reject_bad_z(z, got):
    # the rule of integrate_nested: 0 gave 437.8, -1 gave 1.8e263, [1, -2] an overflow
    table = v.NodeTable()
    v.integrate_nested(_decay_kernel, z=np.array([0.5, 1.0, 2.0]), table=table)
    with pytest.raises(ValueError, match=rf"z must be finite and > 0, got {got}$"):
        table.sums(z)
    assert abs(table.sums(1.0) - 1.0 / 6.0) <= 1e-12


def test_nested_batch_flags_inner_failure_per_row():
    # the z = 3 row oscillates too fast for its inner budget while its outer sum
    # converges; only that row may report the failure
    def kernel(u, b, z):
        return np.exp(-2.0 * b * z) * np.where(z > 2.0, 1.0 + np.sin(40.0 * b * z), 1.0)

    spec = v.QuadratureSpec(rel_tol_inner=1e-8, rel_tol_outer=1e-2, max_subdivisions=4)
    # z enters other than as e^{-2 b z}, which no table kernel can express: F goes
    # to the nested engine directly
    batch = v.IntegralBatch(*_nested_rows(kernel, "nonretarded", np.array([0.5, 3.0]), spec, 1.0))
    assert [row.converged for row in batch] == [True, False]
    assert batch.converged is False


def test_table_error_includes_inner_channel(monkeypatch):
    # G(b) = sin b, U(z) = 1 / (1 + 4 z^2); when every inner integral reports a
    # 1 % error, each row's error must carry them, weighted by e^{-2 b z}:
    # at least 1 % of int e^{-2 b z} |sin b| db >= 1 % of U
    lockstep = quadrature._lockstep

    def sloppy(f, n, rel_tol, *args, **kwargs):
        value, error, aux, evals, conv = lockstep(f, n, rel_tol, *args, **kwargs)
        return value, error + 0.01 * np.abs(value), aux, evals, conv

    monkeypatch.setattr(quadrature, "_lockstep", sloppy)
    zs = np.array([0.5, 1.0, 2.0])
    batch = v.integrate_nested(lambda u, b: np.cos(u), z=zs)
    exact = 1.0 / (1.0 + 4.0 * zs**2)
    assert np.all(np.abs(batch.values - exact) <= batch.errors)
    assert np.all(batch.errors >= 0.005 * exact)
    assert not batch.row_converged.any()


def test_table_flags_the_sign_change_row_alone_within_budget(atom, monkeypatch):
    # U of the criterion-9 weak-electric half-space changes sign at z0; a relative
    # tolerance is out of reach there, so that row must stop steering the shared
    # panels and be flagged on its own while every other row converges (the grid
    # row at z = 0.0079, U = -7.3e-3, only with its inner integrals tightened)
    weak = material(wpe=0.02, wte=1.03, wpm=2.0, wtm=1.0)
    z0 = 0.007920119988225793  # the root of U to double precision
    grid = np.geomspace(1e-3, 1e2, 40)
    zs = np.sort(np.append(grid, z0))
    rows = v.potential_halfspace(atom, weak, zs)
    assert [z for z, r in zip(zs.tolist(), rows) if not r.converged] == [z0]
    row = rows[zs.tolist().index(z0)]
    assert abs(row.value) <= row.error  # U(z0) = 0 within the reported error
    # steering by the flagged row would split panels up to the 2000-panel budget
    cost = sum(r.evaluations for r in rows)
    assert cost <= 2 * sum(r.evaluations for r in v.potential_halfspace(atom, weak, grid))

    # a budget the first panels already fill: no panel may be split (every outer
    # panel evaluated has one of the first panels' widths) and rows stay unfinished
    widths = []
    estimate = quadrature._estimate

    def recording(fx, h):
        if fx.ndim == 3:  # (panel, z, node): the table's outer panels
            widths.append(np.ravel(h).tolist())
        return estimate(fx, h)

    monkeypatch.setattr(quadrature, "_estimate", recording)
    rows = v.potential_halfspace(atom, weak, zs, v.QuadratureSpec(max_subdivisions=20))
    assert len(widths[0]) == 20
    assert set().union(*widths[1:]) <= set(widths[0])
    assert not all(r.converged for r in rows)


# ---------------------------------------------------------------- a kept b-node table

def _counting(calls):
    """``integrate_nested`` that appends, per call, the points the kernel got, the
    evaluations reported and the set of b nodes the kernel got."""
    def counting(kernel, **kwargs):
        points, nodes = [0], set()

        def counted(u, b):
            points[0] += np.broadcast(u, b).size
            nodes.update(np.ravel(b).tolist())
            return kernel(u, b)

        batch = v.integrate_nested(counted, **kwargs)
        calls.append((points[0], batch.evaluations, nodes))
        return batch
    return counting


def test_empty_table_call_is_the_table_free_call():
    def kernel(u, b):
        return (b - u) / (1.0 + u * u)

    zs = np.array([0.3, 1.0, 3.0])
    table = v.NodeTable()
    kept = v.integrate_nested(kernel, z=zs, table=table)
    free = v.integrate_nested(kernel, z=zs)
    for field in ("values", "errors", "row_evaluations", "row_converged"):
        assert getattr(kept, field).tobytes() == getattr(free, field).tobytes(), field
    assert table.nodes.shape == (2, 1, table.lo.size, 15) and table.done.any()


def test_table_serves_z_beyond_the_range_that_filled_it(atom):
    # the first call skips every node with 2 b z_min > 700 (z_min = 5); a second
    # call below that z_min and above its z_max computes them, converges, counts
    # only its own kernel points and lies within its errors of the tight oracle
    from vdwlayers import potential as module

    m = fig2_material()
    table = v.NodeTable()
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_nested", _counting(calls))
        v.potential_halfspace(atom, m, np.array([5.0, 10.0]), table=table)

        def nodes():
            h = 0.5 * (table.hi - table.lo)
            x = 0.5 * (table.lo + table.hi)[:, None] + h[:, None] * quadrature._XK
            inside = x < 1.0
            return np.where(inside, table.b_c * x / np.where(inside, 1.0 - x, 1.0), np.inf)

        skipped = 2.0 * nodes() * 5.0 > 700.0
        assert skipped.any() and not table.done[skipped].any()
        wanted = set(nodes()[skipped & (2.0 * nodes() * 0.01 <= 700.0)].tolist())
        zs = np.array([0.01, 0.3, 50.0])
        rows = v.potential_halfspace(atom, m, zs, table=table)
    assert wanted and wanted <= calls[1][2]  # each skipped node the second call needs
    assert table.done[2.0 * nodes() * 0.01 <= 700.0].all()
    assert [points for points, _, _ in calls] == [evals for _, evals, _ in calls]
    assert calls[1][0] == sum(r.evaluations for r in rows) > 0
    for z, row in zip(zs.tolist(), rows):
        assert row.converged, z
        with tight_nested(z) as tight:
            ref = v.potential_halfspace(atom, m, z, tight)
        assert ref.converged
        assert abs(row.value - ref.value) <= row.error, z


def test_table_nodes_decayed_for_a_later_call_count_as_zero(atom):
    # at z = 1e-3 the reflection of this medium overflows at large b and those
    # nodes hold NaN; at z >= 1 they are decayed (2 b z > 700) and count as
    # zero, as in a table-free call, which converges
    m = constant_material(eps0=1e150, mu0=1e150)
    table = v.NodeTable()
    zs = np.array([1.0, 10.0])
    with np.errstate(over="ignore", invalid="ignore"):
        first = v.potential_halfspace(atom, m, np.array([1e-3]), table=table)
        rows = v.potential_halfspace(atom, m, zs, table=table)
        free = v.potential_halfspace(atom, m, zs)
    assert not first[0].converged and np.isnan(table.nodes).any()
    for row, ref in zip(rows, free):
        assert row.converged and ref.converged
        assert abs(row.value - ref.value) <= row.error + ref.error


def test_table_nodes_floored_for_far_rows_are_computed_again_for_near_ones(atom):
    # rows at z in [2, 5] barely weigh the nodes at b >= 1, so their inner
    # integrals stop at floors far above rel_tol_inner |G|; rows at z in
    # [0.01, 0.05] weigh them e^4 times more or beyond, and none of those
    # nodes is kept at its floor: the second call computes them again, and
    # its rows lie within their errors of the tight oracle
    m = fig2_material()
    table = v.NodeTable()

    def loose():
        """b of the computed nodes at b >= 1 whose inner error exceeds rel_tol_inner |G|."""
        h = 0.5 * (table.hi - table.lo)
        x = 0.5 * (table.lo + table.hi)[:, None] + h[:, None] * quadrature._XK
        b = table.b_c * x / np.where(x < 1.0, 1.0 - x, 1.0)
        val, err = table.nodes[:, 0]
        return set(b[table.done & (b >= 1.0)
                     & (err > v.DEFAULT_SPEC.rel_tol_inner * np.abs(val))].tolist())

    v.potential_halfspace(atom, m, np.linspace(2.0, 5.0, 4), table=table)
    floored = loose()
    zs = np.geomspace(0.01, 0.05, 3)
    rows = v.potential_halfspace(atom, m, zs, table=table)
    assert floored and not floored & loose()
    assert sum(r.evaluations for r in rows) > 0
    for z, row in zip(zs.tolist(), rows):
        with tight_nested(z) as tight:
            ref = v.potential_halfspace(atom, m, z, tight)
        assert row.converged and ref.converged, z
        assert abs(row.value - ref.value) <= row.error, z


def test_table_tightened_panels_serve_every_later_z(atom):
    # a redone panel cannot be redone again, so its nodes take no floor: a
    # kept table asked at ever smaller z still converges each time, and the
    # last rows lie within their errors of the tight oracle
    m = material(wpe=0.02, wte=1.03, wpm=2.0, wtm=1.0)
    table = v.NodeTable()
    for zs in (np.array([5.0, 6.5]), np.array([0.5, 0.65]), np.array([0.05, 0.065])):
        rows = v.potential_halfspace(atom, m, zs, table=table)
        assert all(r.converged for r in rows), zs
    assert table.tight.any()
    for z, row in zip(zs.tolist(), rows):
        with tight_nested(z) as tight:
            ref = v.potential_halfspace(atom, m, z, tight)
        assert ref.converged
        assert abs(row.value - ref.value) <= row.error, z


def _seed3_halfspace_scan(atom, table):
    """The half-space benchmark scan's grid at seed 3, which runs one split round."""
    zs = np.geomspace(0.010971341807461817, 109.71341807461816, 20)
    v.potential_halfspace(atom, fig2_material(5.0), zs, table=table)


def _tight_spec_call(atom, table):
    spec = v.QuadratureSpec(rel_tol_outer=1e-12, rel_tol_inner=1e-13)
    v.potential_halfspace(atom, fig2_material(5.0), np.geomspace(0.01, 100.0, 25), spec,
                          table=table, power=1)


def _kept_table_sequence(atom, table):
    m = material(wpe=0.02, wte=1.03, wpm=2.0, wtm=1.0)
    for zs in (np.array([5.0, 6.5]), np.array([0.5, 0.65]), np.array([0.05, 0.065])):
        v.potential_halfspace(atom, m, zs, table=table)
    assert table.tight.any()  # a redo round ran


@pytest.mark.parametrize("calls", [_seed3_halfspace_scan, _tight_spec_call,
                                   _kept_table_sequence])
def test_table_rounds_restart_panels_from_zero_nodes(atom, monkeypatch, calls):
    # every round works on the whole table: a split or redone panel restarts
    # from zero nodes, so a node not marked done is exactly 0, and the panels
    # tile [0, 1] without gap or overlap
    tables, sums = [0], [0]  # _table_rows calls, and their panel sums (one more per round)
    outer_nodes, table_rows = quadrature._outer_nodes, quadrature._table_rows

    def counted(count, f):
        def call(*args, **kwargs):
            count[0] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(quadrature, "_outer_nodes", counted(sums, outer_nodes))
    monkeypatch.setattr(quadrature, "_table_rows", counted(tables, table_rows))
    table = v.NodeTable()
    calls(atom, table)
    assert sums[0] > tables[0]  # at least one round
    assert not table.nodes[:, :, ~table.done].any()
    order = np.argsort(table.lo)
    lo, hi = table.lo[order], table.hi[order]
    assert lo[0] == 0.0 and hi[-1] == 1.0
    assert np.array_equal(lo[1:], hi[:-1]) and np.all(lo < hi)


def test_table_rejects_another_spec_u_scale_or_channel_count():
    def kernel(u, b):
        return np.cos(u)

    table = v.NodeTable()
    v.integrate_nested(kernel, z=np.array([0.5, 1.0]), table=table)
    kept = [a.tobytes() for a in (table.lo, table.nodes, table.done)]
    with pytest.raises(ValueError, match="filled with spec"):
        v.integrate_nested(kernel, z=1.0, spec=v.QuadratureSpec(rel_tol_outer=1e-6),
                           table=table)
    with pytest.raises(ValueError, match="filled with u_scale 1.0, not 2.0"):
        v.integrate_nested(kernel, z=1.0, u_scale=2.0, table=table)
    with pytest.raises(ValueError, match="filled with channel count 1, not 2"):
        v.integrate_nested(lambda u, b: np.stack([np.cos(u)] * 2), z=np.ones((2, 1)),
                           table=table)
    assert [a.tobytes() for a in (table.lo, table.nodes, table.done)] == kept
    # the default spec given by value is the same spec
    res = v.integrate_nested(kernel, z=1.0, spec=v.QuadratureSpec(), table=table)
    assert res.converged and abs(res.value - 1.0 / 5.0) <= res.error


def test_table_call_sequence_repeats_bytes(atom):
    m = fig2_material()

    def sequence():
        table = v.NodeTable()
        rows = [r for z in (np.geomspace(0.2, 5.0, 12), np.geomspace(1.5, 2.1, 65),
                            np.array([0.01, 50.0]), 0.7)
                for r in np.atleast_1d(v.potential_halfspace(atom, m, z, table=table))]
        return np.array([[r.value, r.error, r.evaluations] for r in rows]), table

    (first, one), (second, two) = sequence(), sequence()
    assert first.tobytes() == second.tobytes()
    for field in ("lo", "hi", "tight", "nodes", "done"):
        assert getattr(one, field).tobytes() == getattr(two, field).tobytes(), field
    assert (one.b_c, one.u_scale, one.channels) == (two.b_c, two.u_scale, two.channels)


def _exponential_kernel(u, b):
    """e^{-b}: G(b) = b e^{-b}, and the row of power p at z is 2^p (p + 1)! / (2 z + 1)^(p + 2)."""
    return np.exp(-b) * np.ones_like(u)


@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_power_rows_are_the_z_derivatives_of_a_closed_form(power):
    zs = np.array([0.05, 0.3, 1.0, 3.0])
    batch = v.integrate_nested(_exponential_kernel, z=zs, power=power)
    exact = 2.0**power * math.factorial(power + 1) / (2.0 * zs + 1.0) ** (power + 2)
    assert batch.converged
    assert np.all(np.abs(batch.values - exact) <= batch.errors)
    assert np.all(batch.errors <= 1e-7 * exact)  # a positive integrand: A is the value


def test_power_per_row_and_channel():
    # a 2-D z of two channels, each row with its own power, on one table
    def kernel(u, b):
        one = _exponential_kernel(u, b)
        return np.stack([one, 2.0 * one])

    z = np.array([[0.5, 0.5, 2.0], [1.0, 0.25, 0.25]])
    power = np.array([[0, 1, 2], [2, 0, 1]])
    batch = v.integrate_nested(kernel, z=z, power=power)
    exact = (np.array([[1.0], [2.0]]) * 2.0**power
             * np.vectorize(math.factorial)(power + 1) / (2.0 * z + 1.0) ** (power + 2))
    assert batch.converged
    assert np.all(np.abs(batch.values - exact) <= batch.errors)


def test_outer_weight_at_zero_power_is_the_plain_exponential():
    # 0 log(2 b) is +-0 and x +- 0 is x, so the one-exponential weight at p = 0
    # is e^{-2 b z} to the bit, -0 exponents and underflow to 0 included
    b = np.geomspace(1e-12, 1e12, 1201)[:, None]
    z = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 601)])[None, :]
    with np.errstate(under="ignore"):
        weighed = quadrature._outer_weight(b, z, np.zeros(z.shape, dtype=int))
        plain = np.exp(-2.0 * b * z)
    assert weighed.tobytes() == plain.tobytes()


def test_power_rows_across_z_chunks():
    # per-row powers 0, 1, 2 over more z than two chunks of the table's sums
    zs = np.geomspace(0.05, 20.0, 2 * quadrature._TABLE_Z_CHUNK + 3)
    power = np.arange(zs.size) % 3
    batch = v.integrate_nested(_exponential_kernel, z=zs, power=power)
    exact = (2.0**power * np.vectorize(math.factorial)(power + 1)
             / (2.0 * zs + 1.0) ** (power + 2))
    assert batch.converged
    assert np.all(np.abs(batch.values - exact) <= batch.errors)


def test_zero_power_is_the_call_without_power(atom):
    # a p = 0 row is weighed by e^{0 log(2 b) - 2 b z}, which is e^{-2 b z} to
    # the bit: the same bytes, and the same table, as the call without power
    m = fig2_material()
    zs = np.geomspace(0.2, 5.0, 12)

    def fields(rows):
        return np.array([[r.value, r.error, r.left, r.right, r.evaluations, r.converged]
                         for r in rows]).tobytes()

    tables = [v.NodeTable() for _ in range(3)]
    plain = v.potential_halfspace(atom, m, zs, table=tables[0])
    for power, table in ((0, tables[1]), (np.zeros(zs.size, dtype=int), tables[2])):
        assert fields(v.potential_halfspace(atom, m, zs, table=table, power=power)) == \
            fields(plain)
    for field in ("lo", "hi", "tight", "nodes", "done"):
        assert len({getattr(t, field).tobytes() for t in tables}) == 1, field
    stack = multilayer_scan_stack()  # an interior atom: two channels
    assert fields(v.potential_multilayer(stack, atom, power=np.zeros(5, dtype=np.int32))) == \
        fields(v.potential_multilayer(stack, atom))
    z2 = np.array([[0.5, 2.0], [1.0, 3.0]])

    def kernel(u, b):
        return np.stack([_exponential_kernel(u, b)] * 2)

    with_power = v.integrate_nested(kernel, z=z2, power=np.zeros((2, 2), dtype=int))
    without = v.integrate_nested(kernel, z=z2)
    for field in ("values", "errors", "row_evaluations", "row_converged"):
        assert getattr(with_power, field).tobytes() == getattr(without, field).tobytes()


@pytest.mark.parametrize("power", [-1, 1.0, True, np.array([1, 2, 3]), "1"])
def test_power_rejects_bad_values(power):
    with pytest.raises(ValueError, match="power"):
        v.integrate_nested(_exponential_kernel, z=np.array([1.0, 2.0]), power=power)


def test_table_sums_are_the_rows_that_filled_it(atom):
    m = fig2_material()
    zs = np.geomspace(0.2, 5.0, 12)
    table = v.NodeTable()
    with pytest.raises(ValueError, match="empty"):
        table.sums(zs)
    rows = v.potential_halfspace(atom, m, zs, table=table)
    values = np.array([r.value for r in rows])
    assert np.all(np.abs(table.sums(zs) - values) <= 1e-14 * np.abs(values))
    assert table.sums(float(zs[3])) == table.sums(zs)[3]
    # the force: within the errors of the rows of power 1 (a call that may
    # grow the table, so it runs on a copy of it)
    forces = v.potential_halfspace(atom, m, zs, table=copy.deepcopy(table), power=1)
    assert all(f.converged for f in forces)
    assert all(abs(s - f.value) <= f.error for s, f in zip(table.sums(zs, power=1), forces))
    with pytest.raises(ValueError, match="does not fit a table of 1 channel"):
        table.sums(np.stack([zs, zs]))
    # a two-channel table: the left and right walls of an interior atom
    stack = multilayer_scan_stack()
    gap = v.NodeTable()
    rows = v.potential_multilayer(stack, atom, table=gap)
    walls = gap.sums(np.stack([MULTILAYER_SCAN_Z, 6.0 - MULTILAYER_SCAN_Z]))
    for r, left, right in zip(rows, *walls):
        assert abs(left - r.left) <= 1e-14 * abs(r.left)
        assert abs(right - r.right) <= 1e-14 * abs(r.right)
    with pytest.raises(ValueError, match="does not fit a table of 2 channel"):
        gap.sums(MULTILAYER_SCAN_Z)

"""Outside-in layer probes: spans and counts recorded around calls into vdwlayers.

Each probe replaces a function where its caller looks the name up (a module
global, or a method on its class), records a span per call, and is removed
again when tracing ends.  Spans nest on one stack, so a span's self time is
its duration minus the spans it directly encloses.  The kernel handed to
``integrate_nested`` is wrapped per call: it is the boundary between the
quadrature engine and the physics layers, and the only place where the
engine's batch size is visible from outside.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class ProbeError(Exception):
    """A probe target is missing, a probe never fired, or a probe self-check failed.

    Not a RuntimeError: the CLI turns those into exit code 3, which would
    hide the probe failure as a numerical one.
    """


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    points: int = 0
    durations: list = field(default_factory=list)


# (span key, module, attribute).  A key may have several targets; the layer
# is the key's first dotted component.
FUNCTION_PROBES = (
    ("cli", "vdwlayers.cli", "main"),
    ("config.load", "vdwlayers.cli", "load_config"),
    ("potential", "vdwlayers.cli", "potential_halfspace"),
    ("potential", "vdwlayers.cli", "potential_multilayer"),
    ("quadrature.nested", "vdwlayers.potential", "integrate_nested"),
    ("quadrature.nested", "vdwlayers.perturbation", "integrate_nested"),
    ("quadrature.inner", "vdwlayers.quadrature", "integrate_semi_infinite"),
    ("quadrature.oned", "vdwlayers.potential", "integrate_semi_infinite"),
    ("quadrature.oned", "vdwlayers.asymptotics", "integrate_semi_infinite"),
    ("quadrature.oned", "vdwlayers.asymptotics", "integrate_finite"),
    ("quadrature.oned", "vdwlayers.perturbation", "integrate_semi_infinite"),
    ("stack.refl", "vdwlayers.potential", "reflection_coefficients"),
    ("materials", "vdwlayers.materials.MaterialModel", "eps"),
    ("materials", "vdwlayers.materials.MaterialModel", "mu"),
    ("materials", "vdwlayers.materials.AtomModel", "alpha"),
    ("asymptotics.locate_wall", "vdwlayers.cli", "locate_wall"),
    ("asymptotics.coeffs", "vdwlayers.cli", "thick_coefficients"),
    ("asymptotics.coeffs", "vdwlayers.cli", "thin_coefficients"),
    ("asymptotics.coeffs", "vdwlayers.cli", "wall_estimate"),
    ("asymptotics.border", "vdwlayers.cli", "border_curve"),
    ("perturbation.term", "vdwlayers.perturbation", "expansion_order1"),
    ("perturbation.term", "vdwlayers.perturbation", "expansion_order2"),
    ("perturbation.check", "vdwlayers.cli", "additivity_check"),
)

# The counter that shows a layer did work; it must be non-zero wherever the
# workload declares the layer active.
LAYER_WITNESS = {
    "config": "config.load",
    "cli": "cli",
    "potential": "potential",
    "quadrature": "quadrature.nested",
    "stack": "stack.refl",
    "materials": "materials",
    "asymptotics": "asymptotics.locate_wall",
    "perturbation": "perturbation.term",
}

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "config.load_s": "s", "cli.self_s": "s",
    "potential.calls": "count", "potential.self_s": "s",
    "potential.ms_per_call.p50": "ms", "potential.ms_per_call.p90": "ms",
    "quadrature.nested_calls": "count", "quadrature.inner_integrals": "count",
    "quadrature.nested_self_s": "s", "quadrature.kernel_calls": "count",
    "quadrature.kernel_points": "count", "quadrature.kernel_s": "s",
    "quadrature.points_per_call": "count", "quadrature.kernel_ns_per_point": "ns",
    "quadrature.points_per_potential": "count", "quadrature.nonconverged": "count",
    "quadrature.oned_calls": "count", "quadrature.oned_s": "s",
    "stack.refl_calls": "count", "stack.refl_points": "count", "stack.refl_s": "s",
    "stack.refl_ns_per_point": "ns",
    "materials.calls": "count", "materials.points": "count", "materials.s": "s",
    "asymptotics.locate_wall_s": "s", "asymptotics.wall_potentials": "count",
    "asymptotics.coeffs_s": "s", "asymptotics.border_s": "s",
    "asymptotics.border_integrals": "count",
    "perturbation.check_s": "s", "perturbation.terms": "count",
    "perturbation.ms_per_term": "ms",
    "trace.overhead_frac": "ratio",
}


# Keys whose arguments carry an array of evaluation points: (positional index
# of the first point argument, number of point arguments).
_POINT_ARGS = {"materials": (1, 1), "stack.refl": (1, 2), "kernel": (0, 2)}


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def _npoints(args, first: int, count: int) -> int:
    return int(np.broadcast(*args[first:first + count]).size)


class Tracer:
    """Installs the probes, records spans, and restores every target on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.nonconverged = 0
        self.wall_potentials = 0
        self.border_integrals = 0
        self.oned_nested_s = 0.0  # nested time driven from inside 1-D integrands
        self._stack: list[list] = []  # per open span: [time in direct children, key]
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _inside(self, key: str) -> bool:
        return any(frame[1] == key for frame in self._stack)

    def _call(self, key, fn, args, kwargs, keep=False):
        frame = [0.0, key]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            st = self.stat(key)
            st.calls += 1
            st.total_s += dt
            st.self_s += dt - frame[0]
            if keep:
                st.durations.append(dt)
            if key in _POINT_ARGS:
                st.points += _npoints(args, *_POINT_ARGS[key])

    def _wrapper(self, key, fn):
        tracer = self
        if key == "quadrature.nested":
            return self._nested_wrapper(fn)
        if key == "quadrature.inner":
            def inner(*args, **kwargs):
                res = tracer._call(key, fn, args, kwargs)
                tracer.nonconverged += not res.converged
                return res
            return inner
        if key == "quadrature.oned":
            def oned(*args, **kwargs):
                tracer.border_integrals += tracer._inside("asymptotics.border")
                nested = tracer.stat("quadrature.nested")
                before = nested.total_s
                res = tracer._call(key, fn, args, kwargs)
                tracer.oned_nested_s += nested.total_s - before
                tracer.nonconverged += not res.converged
                return res
            return oned
        if key == "potential":
            def potential(*args, **kwargs):
                tracer.wall_potentials += tracer._inside("asymptotics.locate_wall")
                return tracer._call(key, fn, args, kwargs, keep=True)
            return potential

        def span(*args, **kwargs):
            return tracer._call(key, fn, args, kwargs)
        return span

    def _nested_wrapper(self, fn):
        tracer = self

        def nested(kernel, *args, **kwargs):
            kstat = tracer.stat("kernel")
            points_before = kstat.points

            def traced_kernel(*kargs, **kkwargs):
                return tracer._call("kernel", kernel, kargs, kkwargs)

            res = tracer._call("quadrature.nested", fn, (traced_kernel,) + args, kwargs)
            points = kstat.points - points_before
            if points != res.evaluations:
                raise ProbeError(
                    f"probe kernel: counted {points} kernel points but integrate_nested "
                    f"reported {res.evaluations} evaluations")
            tracer.nonconverged += not res.converged
            return res
        return nested

    def __enter__(self) -> "Tracer":
        try:
            for key, owner_path, attr in FUNCTION_PROBES:
                try:
                    owner = _resolve(owner_path)
                    original = vars(owner)[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    raise ProbeError(f"probe {key}: target {owner_path}.{attr} no longer "
                                     f"exists") from None
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def require(self, layers) -> None:
        """Fail when a layer the workload exercises recorded no calls."""
        for layer in layers:
            key = LAYER_WITNESS[layer]
            if self.stat(key).calls == 0:
                raise ProbeError(f"probe {key}: layer {layer!r} recorded no calls; "
                                 f"its target was probably renamed or bypassed")

    def counts(self) -> dict[str, int]:
        """Counters that must repeat exactly for a fixed seed."""
        s = self.stat
        return {
            "potential.calls": s("potential").calls,
            "quadrature.nested_calls": s("quadrature.nested").calls,
            "quadrature.inner_integrals": s("quadrature.inner").calls,
            "quadrature.kernel_calls": s("kernel").calls,
            "quadrature.kernel_points": s("kernel").points,
            "quadrature.nonconverged": self.nonconverged,
            "quadrature.oned_calls": s("quadrature.oned").calls,
            "stack.refl_calls": s("stack.refl").calls,
            "stack.refl_points": s("stack.refl").points,
            "materials.calls": s("materials").calls,
            "materials.points": s("materials").points,
            "asymptotics.wall_potentials": self.wall_potentials,
            "asymptotics.border_integrals": self.border_integrals,
            "perturbation.terms": s("perturbation.term").calls,
        }

    def timings(self) -> dict[str, float]:
        """Time metrics in seconds (and per-call ratios), for one traced job."""
        s = self.stat
        pot = s("potential")
        kern = s("kernel")
        refl = s("stack.refl")
        terms = s("perturbation.term")
        durations_ms = [1e3 * d for d in pot.durations]
        p50 = p90 = 0.0
        if len(durations_ms) >= 2:
            p50 = statistics.median(durations_ms)
            p90 = statistics.quantiles(durations_ms, n=10, method="inclusive")[8]
        elif durations_ms:
            p50 = p90 = durations_ms[0]
        return {
            "config.load_s": s("config.load").total_s,
            "cli.self_s": s("cli").self_s,
            "potential.self_s": pot.self_s,
            "potential.ms_per_call.p50": p50,
            "potential.ms_per_call.p90": p90,
            "quadrature.nested_self_s": s("quadrature.nested").total_s - kern.total_s,
            "quadrature.kernel_s": kern.total_s,
            "quadrature.kernel_ns_per_point": 1e9 * kern.total_s / kern.points if kern.points
            else 0.0,
            "quadrature.oned_s": s("quadrature.oned").total_s - self.oned_nested_s,
            "stack.refl_s": refl.total_s,
            "stack.refl_ns_per_point": 1e9 * refl.total_s / refl.points if refl.points else 0.0,
            "materials.s": s("materials").total_s,
            "asymptotics.locate_wall_s": s("asymptotics.locate_wall").total_s,
            "asymptotics.coeffs_s": s("asymptotics.coeffs").total_s,
            "asymptotics.border_s": s("asymptotics.border").total_s,
            "perturbation.check_s": s("perturbation.check").total_s,
            "perturbation.ms_per_term": 1e3 * terms.total_s / terms.calls if terms.calls
            else 0.0,
        }

    def ratios(self) -> dict[str, float]:
        """Count ratios; they repeat exactly like the counts they derive from."""
        s = self.stat
        kern = s("kernel")
        pot = s("potential")
        return {
            "quadrature.points_per_call": kern.points / kern.calls if kern.calls else 0.0,
            "quadrature.points_per_potential": kern.points / pot.calls if pot.calls else 0.0,
        }

    def samples(self) -> dict[str, int]:
        return {"potential.ms_per_call": len(self.stat("potential").durations)}

"""External span tracer for the fhnspde layers.

The package has no spans of its own, so the benchmark wraps the public
callables of each layer from outside: every binding of a listed function in
any loaded ``fhnspde`` module (``solver`` and ``cli`` keep their own
references to functions defined elsewhere), plus the ``Stepper`` methods and
``_FIRMollifier.slice_hat``.  Spans ``(name, start, end, parent, detail)`` are
kept in memory; ``remove`` puts every original binding back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Callable, Optional

# (span name, defining module, attribute path); several callables may share a
# span name, as ``run`` and ``epsilon_sweep`` share the solver's loop.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("solver.nonlinearity", "fhnspde.solver", "Stepper.nonlinearity"),
    ("solver.step_u", "fhnspde.solver", "Stepper.step_u"),
    ("solver.to_real", "fhnspde.solver", "Stepper.to_real"),
    ("solver.step_v", "fhnspde.solver", "Stepper.step_v"),
    ("solver.fir_slice", "fhnspde.solver", "_FIRMollifier.slice_hat"),
    ("solver.loop", "fhnspde.solver", "run"),
    ("solver.loop", "fhnspde.solver", "epsilon_sweep"),
    ("solver.counterterms_for", "fhnspde.solver", "counterterms_for"),
    ("noise.sample_white_noise", "fhnspde.noise", "sample_white_noise"),
    ("noise.mollify_noise", "fhnspde.noise", "mollify_noise"),
    ("noise.mollifier_transform", "fhnspde.noise", "mollifier_transform"),
    ("kernels.build_truncated_kernel", "fhnspde.kernels",
     "build_truncated_kernel"),
    ("kernels.mollify_kernel", "fhnspde.kernels", "mollify_kernel"),
    ("kernels.kq_kernel", "fhnspde.kernels", "kq_kernel"),
    ("kernels.correlate", "fhnspde.kernels", "correlate"),
    ("kernels.radial_convolve", "fhnspde.kernels", "radial_convolve"),
    ("kernels.kernel_constants", "fhnspde.kernels", "kernel_constants"),
    ("symbols.enumerate_symbols", "fhnspde.symbols", "enumerate_symbols"),
    ("hopf.coproduct", "fhnspde.hopf", "coproduct"),
    ("renorm.renormalized_nonlinearity", "fhnspde.renorm",
     "renormalized_nonlinearity"),
    ("cli.main", "fhnspde.cli", "main"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(n for n, _, _ in TARGETS))


def _noise_shape(fn, args, kwargs) -> Optional[list]:
    """Lattice shape of the noise a noise-layer call works on."""
    obj = args[0] if args else next(iter(kwargs.values()), None)
    lat = getattr(obj, "lattice", obj)
    shape = getattr(lat, "shape", None)
    return list(shape) if shape is not None else None


# span name -> function of (callable, args, kwargs) kept as the span detail
_DETAIL: dict[str, Callable] = {
    "noise.sample_white_noise": _noise_shape,
    "noise.mollify_noise": _noise_shape,
    "solver.loop": lambda fn, args, kwargs: fn.__name__,
}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "fhnspde" or name.startswith("fhnspde."))]


class Tracer:
    """Wraps the listed callables; spans are recorded while installed.

    A call of a callable from inside its own span (recursion, as in
    ``hopf.coproduct``) is folded into the outermost span.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []      # [name, start, end, parent, detail]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, detail: Optional[Callable]
              ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            info = detail(fn, args, kwargs) if detail else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, parent, info])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, modname, path in self.targets:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                # a method: the class is the one binding
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                bindings = [(m, a) for m in modules
                            for a, v in list(vars(m).items())
                            if v is original]
            wrapped = self._wrap(name, original, _DETAIL.get(name))
            for mod, a in bindings:
                self._patched.append((mod, a, original))
                setattr(mod, a, wrapped)
        return self

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, names=SPAN_NAMES) -> dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every span name."""
    out = {}
    for name in names:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span[0]}.self_s"] += own
        out[f"{span[0]}.calls"] += 1
    return out


def _rfft_cells(shape) -> int:
    """Complex entries of an rfft over all axes but the first (time)."""
    return math.prod(shape[:-1]) * (shape[-1] // 2 + 1)


def materialised_noise_mb(spans) -> float:
    """Bytes of full-history noise arrays, computed from the lattice shapes.

    ``sample_white_noise`` makes one real float64 field.  Under
    ``epsilon_sweep`` its rfft over space is kept whole (complex128);
    ``mollify_noise`` makes a time-smoothed real copy, its complex rfft and
    the real mollified result.  Computed, not measured.
    """
    total = 0
    for name, _, _, parent, shape in spans:
        if name == "noise.sample_white_noise":
            total += 8 * math.prod(shape)
            if parent >= 0 and spans[parent][4] == "epsilon_sweep":
                total += 16 * _rfft_cells(shape)
        elif name == "noise.mollify_noise":
            total += 2 * 8 * math.prod(shape) + 16 * _rfft_cells(shape)
    return total / 2 ** 20

"""Numerical kernels: truncated heat kernel, mollification, constants.

Geometry conventions.  Space-time points are (t, x) with parabolic gauge
q(z) = |x|^2 + |t|; all spatial dependence is radial, so every kernel is
represented by its profile on a graded (t, r) tensor grid built from
Gauss-Legendre panels refined geometrically toward the singular scales.

The truncated kernel agrees with the heat kernel on the inner region
{q <= inner}, is supported in {q <= outer, t > 0}, and carries smooth annulus
corrections making the moments against {1, t, |x|^2} vanish exactly (degree-2
parabolic renormalisability).  Mollification is by a separable compactly
supported bump (or truncated Gaussian for cross-checks) in two passes: a 1-d
convolution in t, then a radial convolution in x.  The slow-channel kernel is
a time convolution against an exponential-decay weight, tapered to zero at a
finite horizon.

Constants delivered: C1(eps) = int K_eps^2, the correlation functions
Q0, Q1, Q2 (eps-mollified, at the origin and as space-time functions),
C2(eps) = 2 int K * Q0^2, and the kernel integrals Iij = int K * Qi * Qj.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "heat_kernel",
    "sphere_area",
    "Grid1D",
    "panel_grid",
    "geometric_edges",
    "radial_integral",
    "radial_convolve",
    "MollifierSpec",
    "TruncatedKernel",
    "build_truncated_kernel",
    "kernel_moments",
    "KernelConstructionError",
    "MollifiedKernel",
    "mollify_kernel",
    "kq_exact",
    "kq_kernel",
    "phi_series",
    "matrix_weight",
    "smooth_taper",
    "correlate",
    "KernelConstants",
    "kernel_constants",
    "counterterm_constants",
    "CounterTerms",
    "assemble_C",
    "BoundCheck",
    "verify_appendix_bounds",
]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _fill(out: np.ndarray, live, f: Callable, *args) -> np.ndarray:
    """``out`` with f(*args), evaluated on the ``live`` entries only, in
    place there; ``args`` broadcast to ``out``'s shape.  Bit for bit f
    everywhere, then selected: numpy's elementwise loops give an entry the
    same bits at any array length, but its scalar ``pow`` is libm's, not
    the SIMD loop's, so a 0-d ``out`` is evaluated whole, as scalars."""
    if out.ndim == 0:
        return f(*args) if live else out
    out[live] = f(*(np.broadcast_to(a, out.shape)[live] for a in args))
    return out


def _clipped(y, p: Callable, top: float = 1.0) -> np.ndarray:
    """p(clip(y, 0, top)) for a polynomial p that maps 0 to 0 and ``top`` to
    itself exactly, evaluated on 0 < y < top only: y <= 0 gives 0, y >= top
    gives ``top``, NaN stays NaN.  numpy's powers take slow scalar lanes on
    zeros and underflows, which the clipped ends would feed them."""
    y = np.clip(np.asarray(y, dtype=float), 0.0, top) + 0.0   # -0.0 to 0.0
    return _fill(y, (y > 0.0) & (y < top), p, y)


def _fourth(y):
    return y ** 4


def heat_kernel(t, r, d: int):
    """G(t, x) = (4 pi t)^(-d/2) exp(-r^2 / 4t) for t > 0, else 0.

    exp runs only where its argument is not below -746, where IEEE exp is
    exactly +0 (numpy's takes a slow lane on each such entry); so where
    (4 pi t)^(-d/2) overflows (t < 1e-206 in d = 3), such entries are 0,
    not inf * 0 = NaN.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    pos = t > 0
    arg = -np.square(r) / (4.0 * np.where(pos, t, 1.0))
    return _fill(np.zeros(np.broadcast(t, r).shape), pos & ~(arg < -746.0),
                 lambda t, a: (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(a),
                 t, arg)


# ---------------------------------------------------------------------------
# Graded quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    nodes: np.ndarray
    weights: np.ndarray


def geometric_edges(lo: float, hi: float, h_min: float,
                    ratio: float = 2.0) -> np.ndarray:
    """Panel edges on [lo, hi] refined geometrically toward lo."""
    if hi <= lo:
        raise ValueError("empty interval")
    if not (math.isfinite(h_min) and h_min > 0):
        raise ValueError(f"smallest panel {h_min!r} must be finite and "
                         "positive")
    edges = [lo]
    h = min(h_min, hi - lo)
    x = lo
    while x + h < hi:
        x += h
        edges.append(x)
        h *= ratio
    edges.append(hi)
    return np.array(edges)


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only."""
    xg, wg = leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def panel_grid(edges: Sequence[float], order: int) -> Grid1D:
    """Composite Gauss-Legendre rule over consecutive panels.

    A stack of edge rows (..., n) gives one rule per row: nodes and weights
    of shape (..., (n - 1) order), each row as its edges alone would give.
    """
    xg, wg = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    if edges.shape[-1] < 2:
        raise ValueError("need at least one panel")
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return Grid1D((mid + half * xg).reshape(shape),
                  (half * wg).reshape(shape))


def _graded_span(a: float, b: float, h_min: float,
                 ratio: float = 2.0) -> np.ndarray:
    """Panel edges on [a, b] refined toward u = 0: one row of
    :func:`_graded_spans`."""
    steps = geometric_edges(0.0, max(b - a, h_min), h_min, ratio)[:-1]
    return _graded_spans(np.array([a]), np.array([b]), h_min, steps)[0]


def _graded_spans(a: np.ndarray, b: np.ndarray, h_min: float,
                  steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges on each [a_i, b_i], refined toward u = 0 from both sides
    when a_i < 0 < b_i, else toward the endpoint nearest it; [a_i, b_i]
    alone when b_i - a_i <= h_min.  ``steps`` are the partial sums of
    ``geometric_edges(0, L, h_min, ratio)`` below the longest side L at
    least, so a side of length L is that call's edges bit for bit: the
    steps below L, then L.  Returns every row's edges in one flat array,
    and each row's edge count.
    """
    length = b - a
    short = length <= h_min
    two = (a < 0.0) & (0.0 < b) & ~short
    # steps below the left side of a two-sided row, below the right or only
    # side of any other: a row has left + right + 1 edges
    left = np.where(two, np.searchsorted(steps, -a), 0)
    right = np.where(short, 1, np.searchsorted(steps, np.where(two, b, length)))
    n = left + right + 1
    row = np.repeat(np.arange(n.size), n)
    k = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)   # edge in row
    a, b, length, left, right, short, two = (
        v[row] for v in (a, b, length, left, right, short, two))
    first, last, pos = k == 0, k == left + right, a >= 0.0
    # the steps counted up from 0 on a right side, down to 0 on a left one
    up = np.clip(k - left, 0, steps.size - 1)
    down = np.clip(np.where(two, left, right) - k, 0, steps.size - 1)
    # [a, b] alone; a, -steps down to 0 (excluded), steps up from 0, b;
    # a + steps up, a + length; b - length, b - steps down to 0
    edges = np.select(
        [short, two & first, two & (k < left), two & ~last, two,
         pos & ~last, pos, first],
        [np.where(first, a, b), a, -steps[down], steps[up], b,
         a + steps[up], a + length, b - length],
        b - steps[down])
    return edges, n


def _shell(grid: Grid1D, d: int) -> np.ndarray:
    """Weights of the radial measure |S^(d-1)| r^(d-1) dr on the grid."""
    return sphere_area(d) * grid.weights * grid.nodes ** (d - 1)


def radial_integral(vals: np.ndarray, grid: Grid1D, d: int) -> float:
    """int f(|x|) dx over R^d for a radial profile sampled on the grid."""
    return float(np.sum(_shell(grid, d) * vals))


# ---------------------------------------------------------------------------
# Cubic splines
# ---------------------------------------------------------------------------

class _Spline:
    """Piecewise polynomial along axis 0, for any number of columns.

    ``c`` of shape (k, n - 1, *cols) holds, on [x_i, x_{i+1}], the
    coefficients of (x - x_i)^(k-1), ..., (x - x_i)^0.  Arguments are
    clamped to [x_0, x_{n-1}], as FITPACK clamps.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    @classmethod
    def not_a_knot(cls, x, y) -> "_Spline":
        """The not-a-knot cubic interpolant of y (n >= 4 rows) at nodes x.

        It is the s = 0 spline of FITPACK, whose knots are x[2:-2].  The
        node slopes solve the tridiagonal system of continuous second
        derivatives, with third-derivative continuity at x_1 and x_{n-2}.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        col = (slice(None),) + (None,) * (y.ndim - 1)
        dx = np.diff(x)
        slope = np.diff(y, axis=0) / dx[col]
        n = x.size
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        sub = np.r_[0.0, dx[1:], d1]                   # row i: s_{i-1}
        diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]]
        sup = np.r_[d0, dx[:-1], 0.0]                  # row i: s_{i+1}
        rhs = np.empty_like(y)
        rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d0
        rhs[1:-1] = 3.0 * (dx[1:][col] * slope[:-1]
                           + dx[:-1][col] * slope[1:])
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        # Thomas elimination, then back substitution, over all columns
        for i in range(1, n):
            m = sub[i] / diag[i - 1]
            diag[i] -= m * sup[i - 1]
            rhs[i] -= m * rhs[i - 1]
        s = rhs
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx[col]
        return cls(x, np.stack([t / dx[col], (slope - s[:-1]) / dx[col] - t,
                                s[:-1], y[:-1]]))

    def antiderivative(self) -> "_Spline":
        """The integral from x_0, one degree higher."""
        k = self.c.shape[0]
        col = (slice(None),) + (None,) * (self.c.ndim - 2)
        c = np.empty((k + 1,) + self.c.shape[1:])
        c[:k] = self.c / np.arange(k, 0, -1)[col + (None,)]
        c[k] = 0.0
        h = np.diff(self.x)[col]
        piece = c[0] * h
        for ck in c[1:k]:
            piece = (piece + ck) * h
        c[k, 1:] = np.cumsum(piece[:-1], axis=0)
        return _Spline(self.x, c)

    def __call__(self, xq, column=None) -> np.ndarray:
        """Values at ``xq``: shape xq.shape + cols, or xq.shape when
        ``column`` (an integer array broadcast with ``xq``) picks one
        column per point.  One coefficient row is gathered at a time."""
        xq = np.clip(np.asarray(xq, dtype=float), self.x[0], self.x[-1])
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1,
                    0, self.x.size - 2)
        h = xq - self.x[i]
        if column is None:
            at = i
            h = h.reshape(h.shape + (1,) * (self.c.ndim - 2))
        else:
            at = (i, column)
        out = self.c[0][at] * h
        for ck in self.c[1:-1]:
            out += ck[at]
            out *= h
        out += self.c[-1][at]
        return out


# ---------------------------------------------------------------------------
# Mollifiers
# ---------------------------------------------------------------------------

def _bump_norm_x(d: int) -> float:
    # int_{|x| <= 1/2} (1 - 4 |x|^2)^4 dx = pi^(d/2) * 4! / (2^d Gamma(d/2+5))
    return math.pi ** (d / 2.0) * 24.0 / (2 ** d * math.gamma(d / 2.0 + 5))


@dataclass(frozen=True)
class MollifierSpec:
    """Separable space-time mollifier on the unit parabolic cylinder.

    kind = "bump": rho(t, x) = c_t (1 - 16 t^2)^4_+ . c_x (1 - 4 |x|^2)^4_+,
    supported in |t| <= 1/4, |x| <= 1/2, C^3, integral one in each factor.
    kind = "gauss": truncated Gaussians on the same support (the truncation
    tails are ~1e-9 for the default widths), for closed-form cross-checks.
    The scaled family is rho_eps(t, x) = eps^-(d+2) rho(t/eps^2, x/eps).
    """

    d: int
    kind: str = "bump"
    gauss_sigma_t: ClassVar[float] = 0.05
    gauss_sigma_x: ClassVar[float] = 0.09
    t_halfwidth: ClassVar[float] = 0.25
    x_radius: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("bump", "gauss"):
            raise ValueError(f"unknown mollifier kind {self.kind!r}")

    def t_profile(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.kind == "bump":
            core = _clipped(1.0 - 16.0 * tau ** 2, _fourth, np.inf)
            return (315.0 / 64.0) * core
        core = np.where(np.abs(tau) <= self.t_halfwidth,
                        np.exp(-tau ** 2 / (2 * self.gauss_sigma_t ** 2)), 0.0)
        norm = self._gauss_norm_1d(self.gauss_sigma_t, self.t_halfwidth)
        return core / norm

    def x_profile(self, s) -> np.ndarray:
        """Radial spatial factor, normalised so its R^d integral is one."""
        s = np.asarray(s, dtype=float)
        if self.kind == "bump":
            core = _clipped(1.0 - 4.0 * s ** 2, _fourth, np.inf)
            return core / _bump_norm_x(self.d)
        core = np.where(np.abs(s) <= self.x_radius,
                        np.exp(-s ** 2 / (2 * self.gauss_sigma_x ** 2)), 0.0)
        grid = panel_grid(np.linspace(0, self.x_radius, 40), 8)
        norm = radial_integral(
            np.exp(-grid.nodes ** 2 / (2 * self.gauss_sigma_x ** 2)),
            grid, self.d)
        return core / norm

    @staticmethod
    def _gauss_norm_1d(sigma: float, half: float) -> float:
        return sigma * math.sqrt(2 * math.pi) \
            * math.erf(half / (sigma * math.sqrt(2)))

    def scaled_t(self, tau, eps: float) -> np.ndarray:
        return self.t_profile(np.asarray(tau) / eps ** 2) / eps ** 2

    def scaled_x(self, s, eps: float) -> np.ndarray:
        return self.x_profile(np.asarray(s) / eps) / eps ** self.d


# ---------------------------------------------------------------------------
# Truncated heat kernel with vanishing moments
# ---------------------------------------------------------------------------

def _smoothstep_c3(s) -> np.ndarray:
    """C^3 monotone step: 0 at 0, 1 at 1 (35 s^4 - 84 s^5 + 70 s^6 - 20 s^7)."""
    return _clipped(s, lambda s: s ** 4 * (35.0 - 84.0 * s + 70.0 * s ** 2
                                           - 20.0 * s ** 3))


@dataclass(frozen=True)
class TruncatedKernel:
    """K(t, r): heat kernel on the inner region, compact support, flat moments.

    Callable with numpy broadcasting.  ``bump_coeffs`` weight the annulus
    shapes {1, t, r^2}; ``moment_residuals`` are the achieved moments against
    the constrained monomials (quadrature-exact zeros).
    """

    d: int
    inner: ClassVar[float] = 0.5
    outer: ClassVar[float] = 1.0
    bump_coeffs: tuple[float, ...] = ()
    moment_residuals: tuple[float, ...] = ()

    def cutoff(self, q) -> np.ndarray:
        s = (np.asarray(q, dtype=float) - self.inner) / (self.outer - self.inner)
        return 1.0 - _smoothstep_c3(s)

    def annulus_bump(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        mid = (q - self.inner) * (self.outer - q)
        width = (self.outer - self.inner) / 2.0
        return _clipped(mid / width ** 2, _fourth, np.inf)

    def _bump_shapes(self, t, r) -> list[np.ndarray]:
        q = np.square(r) + np.abs(t)
        base = self.annulus_bump(q) * (np.asarray(t) > 0)
        return [base, base * t, base * np.square(r)]

    def __call__(self, t, r) -> np.ndarray:
        """K on its support {t > 0, q < outer} only; 0 elsewhere."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        q = np.square(r) + np.abs(t)
        return _fill(np.zeros(q.shape), (t > 0) & (q < self.outer),
                     self._on_support, t, r, q)

    def _on_support(self, t, r, q) -> np.ndarray:
        out = heat_kernel(t, r, self.d) * self.cutoff(q)
        for c, shape in zip(self.bump_coeffs, self._bump_shapes(t, r)):
            out = out + c * shape
        return out


class KernelConstructionError(RuntimeError):
    """Moment cancellation failed; carries the achieved residuals."""

    def __init__(self, residuals: tuple[float, ...], tol: float):
        self.residuals = residuals
        self.tol = tol
        super().__init__(
            "moment residuals %s exceed tolerance %.1e" % (
                ", ".join("%.3e" % v for v in residuals), tol))


# quadrature nodes per chunk of a moment pass: 128 kB per (rows, nodes) array
_ROW_CHUNK = 2 ** 14


def _moment_monomials() -> list[Callable]:
    return [lambda t, r: np.ones_like(np.broadcast_to(t * r, np.shape(t * r))),
            lambda t, r: t + 0 * r, lambda t, r: np.square(r) + 0 * t]


def _insert_edges(edges, points) -> np.ndarray:
    """Panel edges with break points added, row by row.

    ``edges`` (..., n) are sorted rows, padded with inf; the columns of
    ``points`` (..., k) are radii of limited integrand smoothness.  In
    column order, a point joins its row when it lies more than eps = 1e-12
    above the row's first edge and below the last edge added (the row's
    top edge for the first column), and more than eps from every edge.
    Returns the rows sorted, with inf in place of each point not added.
    """
    eps = 1e-12
    edges = np.asarray(edges, dtype=float)
    last = np.max(edges, axis=-1, where=np.isfinite(edges), initial=-np.inf)
    for p in np.moveaxis(np.asarray(points, dtype=float), -1, 0):
        add = ((edges[..., 0] + eps < p) & (p < last - eps)
               & (np.min(np.abs(p[..., None] - edges), axis=-1) > eps))
        edges = np.concatenate([edges, np.where(add, p, np.inf)[..., None]],
                               axis=-1)
        last = np.where(add, p, last)
    return np.sort(edges, axis=-1)


def _row_r_edges(t: np.ndarray, r_top: float, n_core: int, n_tail: int,
                 breaks: Sequence[float]) -> np.ndarray:
    """Radial panel edges of the t slices ``t``, one sorted row per slice.

    n_core panels resolve the width-sqrt(t) heat core up to 6 sqrt(t), then
    n_tail panels the O(1) cutoff annulus up to r_top.  The radii
    sqrt(v - t), v in ``breaks``, where the integrand is less smooth, join
    by :func:`_insert_edges`.  Rows are padded with inf.
    """
    cut = np.minimum(6.0 * np.sqrt(np.maximum(t, 1e-300)), r_top)
    tail = np.full((t.size, n_tail), np.inf)
    more = cut < r_top
    # only rows with a tail: linspace rounds every row differently once
    # any row of a stacked call has a zero step
    tail[more] = np.linspace(cut[more], r_top, n_tail + 1, axis=-1)[:, 1:]
    edges = np.concatenate(
        [np.linspace(0.0, cut, n_core + 1, axis=-1), tail], axis=-1)
    radii = np.sqrt(np.maximum(np.subtract.outer(breaks, t), 0.0)).T
    return _insert_edges(edges, radii)


def kernel_moments(kernel: TruncatedKernel, order: int = 9,
                   t_min: float = 1e-10, ratio: float = 1.5,
                   n_core: int = 8) -> tuple[float, ...]:
    """Moments of K against the constrained monomials, row-wise quadrature.

    Defaults deliberately differ from the construction grid, so the result is
    an independent estimate of the continuum moments.
    """
    monos = _moment_monomials()
    table = _kernel_moments(lambda t, r: [kernel(t, r)], kernel.d, monos,
                            order, t_min, ratio, n_core)
    return tuple(float(v) for v in table[0])


def _kernel_moments(funcs: Callable, d: int, monos: Sequence[Callable],
                    order: int, t_min: float, ratio: float,
                    n_core: int) -> np.ndarray:
    """(n_funcs, n_monos) moments of the functions ``funcs(t, r)`` returns
    over the support of :class:`TruncatedKernel`.

    A row-wise quadrature: Gauss-Legendre panels in t, and for each t row
    the radial panels of :func:`_row_r_edges`.  Rows with the same panel
    count are built together as 2-D arrays, in chunks of about
    ``_ROW_CHUNK`` nodes; grids, functions, monomials and shell weights are
    elementwise, so each row holds the values it would hold alone.  Each
    row's moment of each function against each monomial is one 1-D dot,
    and the rows are added in t order, so the result does not depend on
    the grouping.
    """
    inner, outer = TruncatedKernel.inner, TruncatedKernel.outer
    t_edges = _insert_edges(geometric_edges(0.0, outer, t_min, ratio), [inner])
    tg = panel_grid(t_edges[np.isfinite(t_edges)], order)
    edges = _row_r_edges(tg.nodes, math.sqrt(outer), n_core, 6, (inner, outer))
    n_edges = np.isfinite(edges).sum(axis=-1)
    table = None
    # the counts present, sorted (np.unique would import numpy.ma)
    for n in np.flatnonzero(np.bincount(n_edges)):
        rows = np.flatnonzero(n_edges == n)
        step = max(1, _ROW_CHUNK // ((n - 1) * order))
        for idx in np.split(rows, range(step, rows.size, step)):
            rg = panel_grid(edges[idx, :n], order)
            t = np.repeat(tg.nodes[idx, None], rg.nodes.shape[-1], axis=-1)
            shell = _shell(rg, d)
            mono_vals = [m(t, rg.nodes) for m in monos]
            vals = funcs(t, rg.nodes)
            if table is None:
                table = np.empty((tg.nodes.size, len(vals), len(monos)))
            for f, v in enumerate(vals):
                for j, m in enumerate(mono_vals):
                    table[idx, f, j] = (shell[:, None] @ (v * m)[..., None]
                                        ).ravel()
    out = 0.0
    for wt, row in zip(tg.weights, table):
        out = out + wt * row
    return out


def build_truncated_kernel(d: int, tol: float = 1e-6) -> TruncatedKernel:
    """Solve the annulus-correction weights for exactly vanishing moments.

    Raises :class:`KernelConstructionError` when the achieved residuals
    exceed ``tol``.
    """
    raw = TruncatedKernel(d=d)
    monos = _moment_monomials()

    def rows(t, r):
        base = heat_kernel(t, r, d) * raw.cutoff(np.square(r) + np.abs(t))
        return [base] + raw._bump_shapes(t, r)

    table = _kernel_moments(rows, d, monos, 10, 1e-9, 1.8, 6)
    g, A = table[0], table[1:].T
    coeffs = np.linalg.solve(A, -g)
    kernel = replace(raw, bump_coeffs=tuple(coeffs))
    residuals = kernel_moments(kernel)
    if max(abs(v) for v in residuals) > tol:
        raise KernelConstructionError(residuals, tol)
    return replace(kernel, moment_residuals=residuals)


# ---------------------------------------------------------------------------
# Radial convolution
# ---------------------------------------------------------------------------

# Block budget, in float entries, of the temporaries of one block: the
# (rho, s, theta, column) spline samples of a radial_basis block over rho,
# and the (row, s, rho) operator of a correlate block over the rows of A.
_F_BLOCK = 2 ** 15
_N_THETA = 24


def _radii(rho) -> np.ndarray:
    """Output radii as a 1-d array; ``ValueError`` if negative or not finite."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        raise ValueError("output radii must be finite and >= 0")
    return rho


def _radial_basis(d: int, f_nodes: np.ndarray, s_grid: Grid1D,
                  rho: np.ndarray, n_theta: int = _N_THETA) -> np.ndarray:
    """The radial convolution in R^d, d in {2, 3}, as one linear operator.

    G of shape (Nf, Ns, Nrho) gives (f * g)(rho) = sum_j,s f_j G[j, s, rho]
    g_s for any f sampled at ``f_nodes`` (spline-interpolated, zero beyond
    the last node) and any g sampled on ``s_grid``.  A cubic spline with
    fixed end conditions is linear in its node values, so G is built from
    one multi-column spline of the identity (the cardinal splines), with
    the s weights w s folded in.  This is the package's one radial
    quadrature.  d = 3 uses the shell identity with the cumulative of u f(u):
        int f(|x-y|) g(|y|) dy
            = (2 pi / rho) int s g(s) [F(s + rho) - F(|s - rho|)] ds,
    F(R) = int_0^R u f(u) du; at rho = 0 it degenerates to
    4 pi int s^2 f g.  d = 2 uses Gauss-Legendre in the polar angle.  G is
    built over blocks of rho whose spline samples hold about ``_F_BLOCK``
    entries.
    """
    if d not in (2, 3):
        raise ValueError("spatial dimension must be 2 or 3")
    s, nf = s_grid.nodes, f_nodes.size
    top = float(f_nodes[-1])
    u = np.concatenate([[0.0], f_nodes])
    eye = np.eye(nf)
    # f is held flat from its first node down to 0
    value = _Spline.not_a_knot(u, np.concatenate([eye[:1], eye]))
    cum = _Spline.not_a_knot(u, np.concatenate(
        [np.zeros((1, nf)), np.diag(f_nodes)])).antiderivative()
    ws = s_grid.weights * s
    xt, wt = _leggauss(n_theta)
    cos_theta = np.cos(0.5 * math.pi * (xt + 1.0))
    G = np.empty((nf, s.size, rho.size))
    step = max(1, _F_BLOCK // (nf * s.size * (n_theta if d == 2 else 1)))
    for lo in range(0, rho.size, step):
        r = rho[lo:lo + step, None]
        if d == 2:
            dist = np.sqrt(np.maximum(
                r[..., None] ** 2 + s[:, None] ** 2
                - 2.0 * r[..., None] * s[:, None] * cos_theta, 0.0))
            # the full circle: twice the half-circle rule, as the integrand
            # is even in theta
            wth = np.where(dist <= top, math.pi * wt, 0.0)
            block = (wth[..., None, :]
                     @ value(np.minimum(dist, top)))[..., 0, :]
        else:
            pos = r > 0
            rp = np.where(pos, r, 1.0)
            block = cum(np.minimum(s + rp, top))
            block -= cum(np.minimum(np.abs(s - rp), top))
            block *= (2.0 * math.pi / rp)[..., None]
            block[~pos[:, 0]] = 4.0 * math.pi * s[:, None] * np.where(
                s[:, None] <= top, value(np.minimum(s, top)), 0.0)
        block *= ws[:, None]
        G[..., lo:lo + step] = block.transpose(2, 1, 0)
    return G


def radial_convolve(d: int, f_nodes, f_vals, s_grid: Grid1D, g_vals,
                    rho, n_theta: int = _N_THETA) -> np.ndarray:
    """Radial convolution (f * g)(|x|) in R^d, d in {2, 3}.

    f is sampled at ``f_nodes`` (spline-interpolated, zero beyond the last
    node), as one profile of shape (Nf,) or a stack of shape (m, Nf); g is
    sampled on ``s_grid``, as one profile (Ns,) or a stack (m, Ns).  Leading
    stack shapes broadcast, and the result has one row of shape (Nrho,) per
    broadcast row: (Nrho,) for two single profiles, (m, Nrho) when either is
    a stack.  The output radii ``rho`` must be finite and >= 0, else
    ``ValueError``.  The operator of :func:`_radial_basis` contracted
    against f and g.
    """
    rho = _radii(rho)
    f_vals = np.asarray(f_vals, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    G = _radial_basis(d, np.asarray(f_nodes, dtype=float), s_grid, rho,
                      n_theta)
    if g_vals.ndim == 1:
        return f_vals @ (g_vals @ G)
    return np.einsum("...j,...s,jsr->...r", f_vals, g_vals, G, optimize=True)


# ---------------------------------------------------------------------------
# Mollified kernels on grids
# ---------------------------------------------------------------------------

class _Resolution(NamedTuple):
    order: int          # Gauss-Legendre order per panel
    ratio: float        # geometric panel growth
    frac: float         # smallest t panel / eps^2, smallest r panel / eps
    conv_edges: int     # panel edges across each mollifier factor

    def graded(self, hi: float, scale: float) -> Grid1D:
        """Panels on [0, hi] growing from frac * scale at 0."""
        return panel_grid(geometric_edges(0.0, hi, self.frac * scale,
                                          self.ratio), self.order)


def _resolution(level: int) -> _Resolution:
    """The grids of accuracy ``level`` >= -1; 0 is the default, -1 coarse.

    Each level up halves the smallest panels, doubles the mollifier panels
    and takes the square root of the growth ratio, so the outer panels
    refine too: at a fixed ratio the gap between levels stops shrinking.
    """
    if level < -1:
        raise ValueError(f"accuracy level {level} below -1")
    if level == -1:
        return _Resolution(5, 2.0, 0.25, 2)
    return _Resolution(8, 2.0 ** 2.0 ** -level, 2.0 ** -(3 + level),
                       4 * 2 ** level)


@dataclass
class MollifiedKernel:
    """A space-time kernel profile held on a graded (t, r) grid."""

    d: int
    t_grid: Grid1D
    r_grid: Grid1D
    vals: np.ndarray                      # (Nt, Nr)
    t_support: tuple[float, float]
    r_support: float
    _t_spline: _Spline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the bicubic not-a-knot interpolant is the t spline of each r
        # column, then the r spline across the columns
        self._t_spline = _Spline.not_a_knot(self.t_grid.nodes, self.vals)

    def __call__(self, t, r) -> np.ndarray:
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(r, dtype=float))
        times, row = np.unique(t, return_inverse=True)
        across = _Spline.not_a_knot(self.r_grid.nodes,
                                    self._t_spline(times).T)
        out = across(r, row.reshape(t.shape))
        mask = ((t >= self.t_support[0]) & (t <= self.t_support[1])
                & (r <= self.r_support))
        return np.where(mask, out, 0.0)

    def profile(self, t) -> np.ndarray:
        """Radial slices on the native r nodes, one row per time in ``t``
        (rows outside the t support are zero)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, self.r_grid.nodes.size))
        inside = (t >= self.t_support[0]) & (t <= self.t_support[1])
        out[inside] = self._t_spline(t[inside])
        return out

    def squared_integral(self) -> float:
        return float(self.t_grid.weights
                     @ (self.vals ** 2 @ _shell(self.r_grid, self.d)))


def _mollify(fn: Callable, d: int, eps: float, rho: MollifierSpec,
             res: _Resolution, t_hi: float, r_hi: float) -> MollifiedKernel:
    """fn * rho_eps on graded grids over [-t_half, t_hi] x [0, r_hi].

    A t pass (1-d convolution against the temporal factor on every radial
    node), then a radial pass (convolution against the spatial factor, one
    stacked call for all t rows).
    """
    t_half = rho.t_halfwidth * eps ** 2
    t_grid = panel_grid(
        _graded_span(-t_half, t_hi, res.frac * eps ** 2, res.ratio),
        res.order)
    r_grid = res.graded(r_hi, eps)

    tau = panel_grid(np.linspace(-t_half, t_half, res.conv_edges), res.order)
    rho_t = rho.scaled_t(tau.nodes, eps)
    ft = np.zeros((t_grid.nodes.size, r_grid.nodes.size))
    for tq, wq, pq in zip(tau.nodes, tau.weights, rho_t):
        ft += wq * pq * fn(t_grid.nodes[:, None] - tq, r_grid.nodes[None, :])

    sg = panel_grid(np.linspace(0.0, rho.x_radius * eps, res.conv_edges),
                    res.order)
    gs = rho.scaled_x(sg.nodes, eps)
    vals = radial_convolve(d, r_grid.nodes, ft, sg, gs, r_grid.nodes)
    return MollifiedKernel(d=d, t_grid=t_grid, r_grid=r_grid, vals=vals,
                           t_support=(-t_half, t_hi), r_support=r_hi)


def mollify_kernel(kernel: TruncatedKernel, eps: float,
                   level: int = 0) -> MollifiedKernel:
    """K_eps = K * rho_eps, rho the bump mollifier, by a t pass then a
    radial x pass on graded grids of accuracy ``level``."""
    rho = MollifierSpec(kernel.d)
    return _mollify(kernel, kernel.d, eps, rho, _resolution(level),
                    kernel.outer + rho.t_halfwidth * eps ** 2,
                    math.sqrt(kernel.outer) + rho.x_radius * eps)


# ---------------------------------------------------------------------------
# Slow-channel weight and kernel
# ---------------------------------------------------------------------------

def smooth_taper(s, T: float) -> np.ndarray:
    """C^2 cutoff: 1 on [0, T], smooth descent to 0 at 2T, 0 beyond."""
    s = np.asarray(s, dtype=float)
    step = _clipped((s - T) / T,
                    lambda x: x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2))
    return np.where(s < 0, 0.0, 1.0 - step)


def phi_series(dt: float, A: np.ndarray) -> np.ndarray:
    """Phi(dt, A) = sum_{m>=0} dt^{m+1} A^m / (m+1)!  (works for singular A),
    summed until a term falls to 1e-16 of the sum.

    e^{dt A} = I + A Phi(dt, A) is the package's one matrix exponential.
    """
    A = np.asarray(A, dtype=float)
    term = dt * np.eye(A.shape[0])
    out = term.copy()
    for m in range(1, 200):
        term = term @ (dt * A) / (m + 1)
        out += term
        if np.max(np.abs(term)) <= 1e-16 * max(np.max(np.abs(out)), 1e-300):
            break
    return out


def matrix_weight(A1: np.ndarray, A2: np.ndarray, channel: int,
                  T: float) -> Callable[[np.ndarray], np.ndarray]:
    """Channel weight Q_i(s) = (e^{s A2} A1)_i, tapered at 2T.

    ``A1`` is the (n,) coupling of the fast variable into the slow channels,
    ``A2`` the (n, n) relaxation matrix, any real one (defective included).
    For s = k h + r with 0 <= r < h, e^{s A2} A1 = e^{r A2} E^k A1: the
    vectors E^k A1 of the exact step E = e^{h A2}, |h A2|_1 <= 1/2, are
    tabulated once up to s = 2T with the Taylor coefficients of e^{r A2}
    on each, so Q evaluates one polynomial in r per point.
    """
    A1 = np.atleast_1d(np.asarray(A1, dtype=float))
    A2 = np.atleast_2d(np.asarray(A2, dtype=float))
    norm = float(np.max(np.sum(np.abs(A2), axis=0)))
    h = min(2.0 * T, 0.5 / norm) if norm else 2.0 * T
    step = np.eye(len(A1)) + A2 @ phi_series(h, A2)
    ys = [A1]
    for _ in range(math.ceil(2.0 * T / h)):
        ys.append(step @ ys[-1])
    terms = [np.array(ys)]
    for m in range(1, 17):          # |r A2|_1 <= 1/2: 2^-17/17! < 1e-19
        terms.append(terms[-1] @ A2.T / m)
    coef = [t[:, channel] for t in terms]

    def Q(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, 0.0, 2.0 * T)
        k = (sc / h).astype(int)
        r = sc - k * h
        out = coef[-1][k]
        for c in coef[-2::-1]:
            out = out * r + c[k]
        return out * smooth_taper(s, T)
    return Q


# the reference slow channel dv = (u - v) dt of the constants and the
# certificates: Q(s) = e^-s, tapered from T to 2T
_T_REF = 0.5
_Q_REF = matrix_weight([1.0], [[-1.0]], 0, _T_REF)


def kq_exact(kernel: TruncatedKernel, Q: Callable, T: float
             ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Unmollified K^Q(t, r) = int_0^{2T} Q(s) K(t - s, r) ds, pointwise.

    Substituting u = t - s, the integrand K(u, r) is sharply peaked at
    u ~ r^2/6, so each point gets a u grid graded toward 0.
    """
    def KQ(t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        tb, rb = np.broadcast_arrays(t, r)
        out = np.zeros(tb.shape)
        flat_t, flat_r = tb.ravel(), rb.ravel()
        res = out.ravel()
        for i, (ti, ri) in enumerate(zip(flat_t, flat_r)):
            lo, hi = max(ti - 2.0 * T, 0.0), min(ti, kernel.outer)
            if hi <= lo:
                continue
            h = max(min(ri ** 2 / 24.0, hi - lo), 1e-12)
            g = panel_grid(_graded_span(lo, hi, h), 10)
            res[i] = float(np.sum(
                g.weights * np.asarray(Q(ti - g.nodes), dtype=float)
                * kernel(g.nodes, ri)))
        return res.reshape(tb.shape)

    return KQ


def kq_kernel(keps: MollifiedKernel, Q: Callable, T: float = _T_REF,
              level: int = 0) -> MollifiedKernel:
    """K^Q_eps(t, x) = int_0^{2T} Q(s) K_eps(t - s, x) ds on the same r grid,
    with t panels of accuracy ``level``.

    In the variable u = t - s the integrand K_eps(u, .) carries all its fine
    structure at scales >= eps^2 near u = 0 (mollification floors the heat
    peak width), so the per-row u grids are graded toward 0.

    One linear operator on the coefficients c of K_eps's t spline: on its
    interval j, K_eps(u, .) = sum_k c[k, j] (u - x_j)^(3-k), so row i is
    sum_{j,k} S[i, j, k] c[k, j] with S[i, j, k] the sum of a (u - x_j)^(3-k)
    over the row's u nodes in interval j, a = weight * Q(t_i - u).  The u
    nodes lie inside K_eps's t support, clamped to the spline's nodes as
    :class:`_Spline` clamps.  The panels of every row form one stacked
    :func:`panel_grid` call; rows that meet no support stay exactly zero.
    """
    t_lo, t_top = keps.t_support
    t_hi = t_top + 2.0 * T
    eps_scale = max(keps.t_grid.nodes[0] - t_lo, 1e-12)
    h_min = eps_scale / 4.0
    res = _resolution(level)
    t_grid = panel_grid(_graded_span(t_lo, t_hi, eps_scale, res.ratio),
                        res.order)
    lo = np.maximum(t_grid.nodes - 2.0 * T, t_lo)
    hi = np.minimum(t_grid.nodes, t_top)
    live = np.flatnonzero(hi > lo)
    steps = geometric_edges(0.0, t_hi - t_lo, h_min, res.ratio)[:-1]
    edges, n_edges = _graded_spans(lo[live], hi[live], h_min, steps)
    ends = np.cumsum(n_edges)
    # one (left, right) edge pair per panel of every span
    g = panel_grid(np.stack([np.delete(edges, ends - 1),
                             np.delete(edges, ends - n_edges)], axis=-1),
                   res.order)
    row = np.repeat(np.arange(live.size), (n_edges - 1) * res.order)
    u, a = g.nodes.ravel(), g.weights.ravel()
    a *= np.asarray(Q(t_grid.nodes[live][row] - u), dtype=float)
    spline = keps._t_spline
    x, n = spline.x, spline.x.size
    u = np.clip(u, x[0], x[-1])
    j = np.clip(np.searchsorted(x, u, side="right") - 1, 0, n - 2)
    h = u - x[j]
    terms = np.empty((4, u.size))             # a h^0, a h^1, a h^2, a h^3
    terms[0] = a
    for k in range(1, 4):
        np.multiply(terms[k - 1], h, out=terms[k])
    at = (row * (n - 1) + j) * 4 + np.arange(3, -1, -1)[:, None]
    S = np.bincount(at.ravel(), terms.ravel(),
                    minlength=live.size * (n - 1) * 4)
    vals = np.zeros((t_grid.nodes.size, keps.r_grid.nodes.size))
    vals[live] = S.reshape(live.size, 4 * (n - 1)) \
        @ spline.c.transpose(1, 0, 2).reshape(4 * (n - 1), -1)
    return MollifiedKernel(d=keps.d, t_grid=t_grid, r_grid=keps.r_grid,
                           vals=vals, t_support=(t_lo, t_hi),
                           r_support=keps.r_support)


# ---------------------------------------------------------------------------
# Correlation functions Q_m
# ---------------------------------------------------------------------------

def correlate(A: MollifiedKernel, Bs: Sequence[MollifiedKernel],
              t_out: np.ndarray, rho_out: np.ndarray,
              G: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """(A star B)(t, x) = int A(z1) B(z1 - z) dz1 on an output (t, r) grid
    for each B in ``Bs``; returns one (Nt, Nrho) array per B.

    Radial in x; the t1 integral runs over A's native grid.  ``Bs`` must be
    non-empty and share one r grid, and ``rho_out`` must be finite and
    >= 0 (else ``ValueError``).  The radial operator G of
    :func:`_radial_basis` from A's r grid to ``rho_out`` is built once, or
    passed in by a caller that already holds it.  The rows of A that meet
    some B's t support go in blocks of about ``_F_BLOCK`` operator
    entries: the block's rows, scaled by A's t weights, times G give its
    operator M of shape (b Ns, Nrho); each B's slices at every t1 - t of
    the block (zero outside its t support) form P of shape (Nt, b Ns), and
    one matmul P @ M adds the block to that B's output, over the output
    times t with some lag in B's t support only.
    """
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    rho_out = _radii(rho_out)
    if not Bs:
        raise ValueError("correlate needs at least one right kernel")
    r_grid = Bs[0].r_grid
    if any(not np.array_equal(B.r_grid.nodes, r_grid.nodes) for B in Bs):
        raise ValueError("right kernels must share one r grid")
    if G is None:
        G = _radial_basis(A.d, A.r_grid.nodes, r_grid, rho_out)
    G = G.reshape(G.shape[0], -1)
    rows = max(1, _F_BLOCK // G.shape[1])
    outs = [np.zeros((t_out.size, rho_out.size)) for _ in Bs]
    for start in range(0, A.t_grid.nodes.size, rows):
        lags = A.t_grid.nodes[start:start + rows] - t_out[:, None]
        hits = [(lags >= B.t_support[0]) & (lags <= B.t_support[1])
                for B in Bs]
        # rows of A with no lag inside any B's t support add nothing, nor
        # do the output times whose lags all miss B's
        live = np.any(hits, axis=(0, 1))
        if not live.any():
            continue
        idx = start + np.flatnonzero(live)
        mat = ((A.t_grid.weights[idx, None] * A.vals[idx]) @ G) \
            .reshape(-1, rho_out.size)
        for out, B, hit in zip(outs, Bs, hits):
            times = np.flatnonzero(hit.any(axis=1))
            out[times] += B.profile(lags[times][:, live].ravel()) \
                .reshape(times.size, -1) @ mat
    return outs


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

@dataclass
class KernelConstants:
    """Renormalisation constants at one mollification scale."""

    d: int
    eps: float
    C1: float
    Q1_0: float
    Q2_0: float
    C2: Optional[float]
    I: dict     # (i, j) -> int K Qi Qj
    errors: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"d": self.d, "eps": self.eps, "C1": self.C1,
                "Q1_0": self.Q1_0, "Q2_0": self.Q2_0, "C2": self.C2,
                "I": {f"I{i}{j}": v for (i, j), v in self.I.items()},
                "errors": self.errors}


def _support_quadrature(kernel: TruncatedKernel, eps: float, level: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output grids of the correlation functions on the kernel support,
    each after a node at the origin, and the weights w of int K q on them
    without the origin (q[1:, 1:]), at accuracy ``level``."""
    res = _resolution(level)
    tg = res.graded(kernel.outer, eps ** 2)
    rg = res.graded(math.sqrt(kernel.outer), eps)
    w = (tg.weights[:, None] * _shell(rg, kernel.d)
         * kernel(tg.nodes[:, None], rg.nodes[None, :]))
    return np.r_[0.0, tg.nodes], np.r_[0.0, rg.nodes], w


def kernel_constants(d: int, eps: float,
                     kernel: Optional[TruncatedKernel] = None,
                     level: int = 0,
                     full: Optional[bool] = None,
                     estimate_errors: bool = False) -> KernelConstants:
    """Compute the renormalisation constants at scale eps, for the bump
    mollifier and the reference slow weight Q(s) = e^-s.

    ``full`` (default: d == 3) adds the correlation functions on the kernel
    support and the integrals C2 and Iij; otherwise only C1 and the origin
    values Q1(0), Q2(0) are computed.  Two correlation passes, K_eps against
    (K_eps, K^Q_eps) for Q0, Q1 and K^Q_eps against itself for Q2, run on
    output grids that start at the origin: Q1(0), Q2(0) are entry [0, 0].
    ``level`` sets the accuracy of every grid (see :func:`_resolution`).
    ``estimate_errors`` repeats the whole computation at ``level + 1`` and
    reports each value's gap to that next finer level; this costs several
    times the plain call (about 5x in d = 3 at eps = 2^-6).
    """
    kernel = kernel or build_truncated_kernel(d)
    full = d == 3 if full is None else full

    keps = mollify_kernel(kernel, eps, level=level)
    kq = kq_kernel(keps, _Q_REF, level=level)
    C1 = keps.squared_integral()
    t_out = r_out = np.zeros(1)
    if full:
        t_out, r_out, w = _support_quadrature(kernel, eps, level)
    # both passes convolve on K_eps's r grid (K^Q_eps shares it): one G
    G = _radial_basis(d, keps.r_grid.nodes, keps.r_grid, r_out)
    q0, q1 = correlate(keps, (keps, kq), t_out, r_out, G)
    [q2] = correlate(kq, (kq,), t_out, r_out, G)
    Q1_0, Q2_0 = float(q1[0, 0]), float(q2[0, 0])

    C2 = None
    I: dict = {}
    if full:
        qs = [q[1:, 1:] for q in (q0, q1, q2)]
        I = {(i, j): float(np.sum(w * qs[i] * qs[j]))
             for j in range(3) for i in range(j + 1)}
        C2 = 2.0 * I[(0, 0)]

    out = KernelConstants(d=d, eps=eps, C1=C1, Q1_0=Q1_0, Q2_0=Q2_0,
                          C2=C2, I=I)
    if estimate_errors:
        fine = kernel_constants(d, eps, kernel, level + 1, full)
        out.errors = {"C1": abs(C1 - fine.C1),
                      "Q1_0": abs(Q1_0 - fine.Q1_0),
                      "Q2_0": abs(Q2_0 - fine.Q2_0)}
        if full:
            out.errors["C2"] = abs(C2 - fine.C2)
            out.errors.update({f"I{i}{j}": abs(I[(i, j)] - fine.I[(i, j)])
                               for (i, j) in I})
    return out


def counterterm_constants(kernel: TruncatedKernel, eps: float
                          ) -> tuple[float, float]:
    """C1 and C2 of the counterterm C(eps) = 3 C1 + 9 gamma1 C2 alone.

    C2 = 2 int K Q0^2 in three dimensions, from one correlation pass of K_eps
    against itself on :func:`kernel_constants`' grids, so neither K^Q_eps
    nor Q1, Q2 is computed; C2 = 0.0 otherwise.  Equal to the C1 and C2 of
    ``kernel_constants(3, eps, kernel=kernel, full=True)``.
    """
    keps = mollify_kernel(kernel, eps)
    C1 = keps.squared_integral()
    if kernel.d != 3:
        return C1, 0.0
    t_out, r_out, w = _support_quadrature(kernel, eps, 0)
    [q0] = correlate(keps, (keps,), t_out, r_out)
    q0 = q0[1:, 1:]
    return C1, 2.0 * float(np.sum(w * q0 * q0))      # 2 I00, as there


# ---------------------------------------------------------------------------
# Counterterm assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterTerms:
    """Numeric counterterm coefficients: F + C0 + C1_sys u + sum C2_i v_i."""

    C0: float
    C1_sys: float
    C2_sys: tuple[float, ...]
    C_eps: float

    def as_dict(self) -> dict:
        return {"C0": self.C0, "C1": self.C1_sys, "C2": list(self.C2_sys),
                "C_eps": self.C_eps}


def assemble_C(beta1: float, gamma1: float, gamma2: Sequence[float],
               C1: float, C2: float) -> CounterTerms:
    """Counterterms (-beta1/3, -gamma1, -gamma2_i/3) * C(eps).

    C(eps) = 3 C1 + 9 gamma1 C2, with C2 = 2 int K Q0^2 in three dimensions
    and C2 = 0.0 in two.
    """
    C_eps = 3.0 * C1 + 9.0 * float(gamma1) * C2
    return CounterTerms(C0=-float(beta1) / 3.0 * C_eps,
                        C1_sys=-float(gamma1) * C_eps,
                        C2_sys=tuple(-float(g) / 3.0 * C_eps for g in gamma2),
                        C_eps=C_eps)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    """Worst-case ratio table for one kernel estimate across a scale sweep.

    ``ratios[i]`` is the supremum of |quantity| divided by the claimed bound
    shape at ``eps[i]``; ``trend`` is the fitted slope of log ratio against
    log(1/eps).  The bound passes when the ratios show no upward trend as
    eps -> 0 (trend <= ``trend_tol``).
    """

    name: str
    eps: list
    ratios: list
    trend: float
    passed: bool


def _trend(eps: Sequence[float], ratios: Sequence[float]) -> float:
    # fitted on the finer half of the sweep: the asymptotic claim is eps -> 0,
    # and the coarsest scales sit outside its regime.  Scales whose ratio is
    # zero (nothing certified above the numerical floor) carry no growth
    # information and are skipped; an all-quiet tail is trivially trend-free.
    eps = np.asarray(eps, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    keep = max(3, (eps.size + 1) // 2)
    order = np.argsort(eps)[:keep]
    e, r = eps[order], ratios[order]
    pos = r > 0
    if np.count_nonzero(pos) < 2:
        return 0.0
    return float(np.polyfit(np.log(1.0 / e[pos]), np.log(r[pos]), 1)[0])


def _shell_samples(eps_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic parabolic-shell sample set covering the kernel support:
    24 radii by 7 angles."""
    lam = np.exp(np.linspace(math.log(eps_min / 8.0), math.log(1.2), 24))
    ang = np.linspace(0.02, 0.98, 7)
    L, A = np.meshgrid(lam, ang, indexing="ij")
    return (L ** 2 * A).ravel(), (L * np.sqrt(1.0 - A)).ravel()


def verify_appendix_bounds(d: int, eps_list: Sequence[float],
                           theta: float, trend_tol: float
                           ) -> list[BoundCheck]:
    """Ratio tables for the kernel estimates behind the constants, for the
    bump mollifier and the reference slow weight of :func:`kernel_constants`.

    Verified shapes: the pointwise growth |K_eps| <= A (|z|_s + eps)^-d;
    the square-integral rate (eps * int K_eps^2 bounded in d = 3, the
    log(1/eps) slope in d = 2); int (K^Q_eps)^2 bounded; and the stability
    sup |K^Q - K^Q_eps| |x|^(1+theta) eps^(-theta) bounded.  Each check
    passes iff its ratio sequence has no upward trend as eps -> 0
    (log-log slope <= ``trend_tol``).

    Raises ``ValueError`` for a non-finite or negative ``theta``, a
    non-finite ``trend_tol`` or fewer than two distinct scales: none of them
    can certify a trend.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if not math.isfinite(trend_tol):
        raise ValueError(f"trend_tol must be finite, got {trend_tol}")
    if len(set(float(e) for e in eps_list)) < 2:
        raise ValueError("a trend needs at least two distinct scales")
    kernel = build_truncated_kernel(d)
    Q, T = _Q_REF, _T_REF
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    KQ0 = kq_exact(kernel, Q, T)

    point_r, rate_r, kqsq_r, stab_r = [], [], [], []
    # stability sample set: fixed across scales so the eps-dependence is real,
    # with radii reaching below every eps so the x ~ eps core is always probed
    xs = np.exp(np.linspace(math.log(0.005), math.log(0.9), 22))
    ts = np.linspace(0.0, 1.0 + 2 * T, 14)
    TS, XS = np.meshgrid(ts, xs, indexing="ij")
    kq_ref = KQ0(TS, XS)
    for eps in eps_list:
        keps = mollify_kernel(kernel, eps)
        kq = kq_kernel(keps, Q, T)
        t, r = _shell_samples(eps)
        lam = np.sqrt(r ** 2 + np.abs(t))
        point_r.append(float(np.max(np.abs(keps(t, r)) * (lam + eps) ** d)))
        C1 = keps.squared_integral()
        rate_r.append(eps * C1 if d == 3 else C1 / math.log(1.0 / eps))
        kqsq_r.append(kq.squared_integral())
        # certify only differences resolvable above the grid error, estimated
        # pointwise as the gap to level 1, as kernel_constants' errors are --
        # else eps^-theta amplifies noise
        kq_fine = kq_kernel(mollify_kernel(kernel, eps, level=1), Q, T,
                            level=1)
        kq_vals = kq(TS, XS)
        noise = np.abs(kq_vals - kq_fine(TS, XS)) + 1e-12
        diff = np.abs(kq_ref - kq_vals)
        certified = np.where(diff > 4.0 * noise, diff, 0.0)
        stab_r.append(float(np.max(certified * XS ** (1 + theta)
                                   / eps ** theta)))

    def check(name, ratios):
        tr = _trend(eps_list, ratios)
        return BoundCheck(name=name, eps=list(eps_list),
                          ratios=[float(x) for x in ratios], trend=tr,
                          passed=tr <= trend_tol)

    rate_name = ("eps * int K_eps^2 bounded" if d == 3
                 else "int K_eps^2 / log(1/eps) bounded")
    return [
        check(f"|K_eps| <= A (|z|_s + eps)^-{d}", point_r),
        check(rate_name, rate_r),
        check("int (K^Q_eps)^2 bounded", kqsq_r),
        check(f"sup |K^Q - K^Q_eps| |x|^{1 + theta} eps^-{theta} bounded",
              stab_r),
    ]

"""Closed-form oracles and invariants for the numerical kernel pipeline."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.special import erfc, exp1

from fhnspde import kernels
from fhnspde.kernels import (
    BoundCheck,
    CounterTerms,
    Grid1D,
    KernelConstructionError,
    MollifiedKernel,
    MollifierSpec,
    assemble_C,
    build_truncated_kernel,
    correlate,
    geometric_edges,
    heat_kernel,
    kernel_constants,
    kernel_moments,
    kq_exact,
    kq_kernel,
    matrix_weight,
    mollify_kernel,
    panel_grid,
    radial_convolve,
    radial_integral,
    smooth_taper,
    sphere_area,
    verify_appendix_bounds,
)
from reference import g_eps_squared

OU = matrix_weight([1.0], [[-1.0]], 0, 0.5)     # the default slow weight


# ---------------------------------------------------------------------------
# quadrature building blocks
# ---------------------------------------------------------------------------

def test_sphere_area():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_panel_grid_polynomial_exact():
    g = panel_grid([0.0, 0.3, 1.0], order=6)
    # GL order 6 integrates degree <= 11 exactly
    for p in (3, 7, 11):
        assert g.nodes ** p @ g.weights == pytest.approx(1 / (p + 1), rel=1e-13)


def test_geometric_edges_shape():
    e = geometric_edges(0.0, 1.0, 1e-3, 2.0)
    assert e[0] == 0.0 and e[-1] == 1.0
    assert np.all(np.diff(e) > 0)
    with pytest.raises(ValueError):
        geometric_edges(1.0, 1.0, 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            geometric_edges(0.0, 1.0, bad)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
def test_heat_l2_closed_form(d, t):
    g = panel_grid(geometric_edges(0.0, 10 * math.sqrt(t), 1e-4 * math.sqrt(t)),
                   10)
    val = radial_integral(heat_kernel(t, g.nodes, d) ** 2, g, d)
    assert val == pytest.approx((8 * math.pi * t) ** (-d / 2), rel=1e-9)


def test_heat_kernel_vanishes_for_negative_time():
    assert heat_kernel(-0.1, 0.3, 3) == 0.0
    assert np.all(heat_kernel(np.array([-1.0, 0.0]), 0.1, 2) == 0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_convolution_semigroup(d):
    # G(t) * G(s) = G(t + s): validates the shell identity (d = 3) and the
    # angular rule (d = 2) against an exact closed form
    t, s = 0.05, 0.02
    fg = panel_grid(geometric_edges(0.0, 5.0, 1e-5, 1.3), 12)
    sg = panel_grid(geometric_edges(0.0, 3.0, 1e-5, 1.3), 12)
    rho = np.array([0.0, 0.05, 0.3, 1.0])
    got = radial_convolve(d, fg.nodes, heat_kernel(t, fg.nodes, d), sg,
                          heat_kernel(s, sg.nodes, d), rho, n_theta=32)
    want = heat_kernel(t + s, rho, d)
    assert np.max(np.abs(got - want) / want) < 5e-6
    # a stack of g profiles gives one row per profile
    ss = np.array([s, 0.04])
    stack = radial_convolve(d, fg.nodes, heat_kernel(t, fg.nodes, d), sg,
                            heat_kernel(ss[:, None], sg.nodes[None, :], d),
                            rho, n_theta=32)
    assert stack.shape == (2, rho.size)
    np.testing.assert_allclose(stack[0], got, rtol=1e-13)
    for row, si in zip(stack, ss):
        want = heat_kernel(t + si, rho, d)
        assert np.max(np.abs(row - want) / want) < 5e-6
    # a stack of f profiles against one g gives one row per profile
    ts = np.array([t, 0.03])
    fstack = radial_convolve(d, fg.nodes,
                             heat_kernel(ts[:, None], fg.nodes[None, :], d),
                             sg, heat_kernel(s, sg.nodes, d), rho, n_theta=32)
    assert fstack.shape == (2, rho.size)
    np.testing.assert_allclose(fstack[0], got, rtol=1e-13)
    for row, ti in zip(fstack, ts):
        want = heat_kernel(ti + s, rho, d)
        assert np.max(np.abs(row - want) / want) < 5e-6
    # output radii are distances: a negative or non-finite one is an error
    for bad in (-0.3, math.nan, math.inf):
        with pytest.raises(ValueError, match="radii"):
            radial_convolve(d, fg.nodes, heat_kernel(t, fg.nodes, d), sg,
                            heat_kernel(s, sg.nodes, d), np.array([0.3, bad]))


def test_radial_convolution_gaussian_variance():
    # G(t, .) * N(0, sigma^2 I) has per-coordinate variance 2t + sigma^2
    d, t = 3, 0.04
    spec = MollifierSpec(d, kind="gauss")
    sigma = spec.gauss_sigma_x
    fg = panel_grid(geometric_edges(0.0, 4.0, 1e-5, 1.4), 10)
    sg = panel_grid(np.linspace(0.0, spec.x_radius, 8), 10)
    rho = np.array([0.02, 0.2, 0.6])
    got = radial_convolve(d, fg.nodes, heat_kernel(t, fg.nodes, d), sg,
                          spec.x_profile(sg.nodes), rho)
    var = 2 * t + sigma ** 2
    want = (2 * math.pi * var) ** (-d / 2) * np.exp(-rho ** 2 / (2 * var))
    assert np.max(np.abs(got - want) / want) < 1e-4


def _direct_radial(d, f_nodes, f_row, s_nodes, s_weights, g_row, rho,
                   n_theta):
    # the radial rule written out for one f and one g, radius by radius,
    # from a spline of f itself: f is held flat below its first node and
    # is zero beyond its last
    u = np.r_[0.0, f_nodes]
    top = f_nodes[-1]
    spline = CubicSpline(u, np.r_[f_row[0], f_row])

    def f(x):
        return np.where(x <= top, spline(np.minimum(x, top)), 0.0)

    ws_g = s_weights * s_nodes * g_row
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    cos_theta = np.cos(0.5 * math.pi * (xt + 1.0))      # theta in [0, pi]
    cum = CubicSpline(u, np.r_[0.0, f_nodes * f_row]).antiderivative()
    out = []
    for r in rho:
        if d == 2:
            # |x - y| at each polar angle; the full circle is twice [0, pi]
            dist = np.sqrt(np.maximum(
                r * r + s_nodes[:, None] ** 2
                - 2.0 * r * s_nodes[:, None] * cos_theta, 0.0))
            out.append(ws_g @ (f(dist) @ (math.pi * wt)))
        elif r == 0.0:
            out.append(4.0 * math.pi * ws_g @ (s_nodes * f(s_nodes)))
        else:
            hi = np.minimum(s_nodes + r, top)
            lo = np.minimum(np.abs(s_nodes - r), top)
            out.append(2.0 * math.pi / r * ws_g @ (cum(hi) - cum(lo)))
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_convolve_matches_direct_quadrature(d):
    # the one operator against the rule applied to f directly, for single
    # profiles and stacks of f and of g; rho + s runs past f's last node
    xg, wg = np.polynomial.legendre.leggauss(6)
    edges = np.array([0.0, 0.02, 0.06, 0.15, 0.35, 0.6, 1.0])
    half = 0.5 * np.diff(edges)[:, None]
    f_nodes = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * xg).ravel()
    s_edges = np.linspace(0.0, 0.5, 5)
    s_half = 0.5 * np.diff(s_edges)[:, None]
    s_nodes = ((0.5 * (s_edges[:-1] + s_edges[1:]))[:, None]
               + s_half * xg).ravel()
    s_weights = (s_half * wg).ravel()
    sg = Grid1D(s_nodes, s_weights)
    rho = np.array([0.0, 0.01, 0.2, 0.55, 0.9])
    fs = heat_kernel(np.array([0.02, 0.05])[:, None], f_nodes, d)
    gs = np.array([(1.0 - 4.0 * s_nodes ** 2) ** 4,
                   np.exp(-s_nodes / 0.1)])
    n_theta = kernels._N_THETA

    def check(got, f_rows, g_rows):
        want = np.array([
            _direct_radial(d, f_nodes, fr, s_nodes, s_weights, gr, rho,
                           n_theta) for fr, gr in zip(f_rows, g_rows)])
        assert np.all(want[:, 0] > 0) and np.all(want[:, -1] > 0)
        np.testing.assert_allclose(got, want.reshape(np.shape(got)),
                                   rtol=1e-13, atol=0)

    check(radial_convolve(d, f_nodes, fs[0], sg, gs[0], rho),
          fs[:1], gs[:1])
    check(radial_convolve(d, f_nodes, fs, sg, gs[0], rho), fs, gs[[0, 0]])
    check(radial_convolve(d, f_nodes, fs[0], sg, gs, rho), fs[[0, 0]], gs)
    check(radial_convolve(d, f_nodes, fs, sg, gs, rho), fs, gs)


@pytest.mark.parametrize("d", [1, 4])
def test_radial_operators_reject_other_dimensions(d):
    # the shell identity and the angular rule hold in d = 3 and d = 2 only
    keps, _ = _keps_kq(3)
    other = replace(keps, d=d)
    with pytest.raises(ValueError, match="dimension"):
        correlate(other, (keps,), np.array([0.0]), np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match="dimension"):
        radial_convolve(d, keps.r_grid.nodes, keps.vals[0], keps.r_grid,
                        keps.vals[0], np.array([0.0, 0.1]))


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["bump", "gauss"])
def test_mollifier_mass(d, kind):
    spec = MollifierSpec(d, kind=kind)
    tg = panel_grid(np.linspace(-spec.t_halfwidth, spec.t_halfwidth, 9), 10)
    assert spec.t_profile(tg.nodes) @ tg.weights == pytest.approx(1.0,
                                                                  abs=1e-10)
    rg = panel_grid(np.linspace(0.0, spec.x_radius, 9), 10)
    assert radial_integral(spec.x_profile(rg.nodes), rg, d) == \
        pytest.approx(1.0, abs=1e-10)


def test_mollifier_scaled_mass():
    spec = MollifierSpec(3)
    eps = 0.1
    tg = panel_grid(np.linspace(-spec.t_halfwidth * eps ** 2,
                                spec.t_halfwidth * eps ** 2, 9), 10)
    assert spec.scaled_t(tg.nodes, eps) @ tg.weights == pytest.approx(
        1.0, abs=1e-10)
    rg = panel_grid(np.linspace(0.0, spec.x_radius * eps, 9), 10)
    assert radial_integral(spec.scaled_x(rg.nodes, eps), rg, 3) == \
        pytest.approx(1.0, abs=1e-10)


def test_mollifier_support_and_sign():
    spec = MollifierSpec(2)
    assert spec.t_profile(0.26) == 0.0
    assert spec.t_profile(-0.3) == 0.0
    assert spec.x_profile(0.51) == 0.0
    ts = np.linspace(-0.25, 0.25, 101)
    assert np.all(spec.t_profile(ts) >= 0.0)
    # the exact normalisation of the quartic bump profile in t
    assert spec.t_profile(0.0) == pytest.approx(315.0 / 64.0, rel=1e-14)


def test_mollifier_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MollifierSpec(3, kind="box")


# ---------------------------------------------------------------------------
# truncated kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_truncated_kernel_moments_vanish(d):
    K = build_truncated_kernel(d)
    assert len(K.moment_residuals) == 3
    assert all(abs(m) < 1e-6 for m in K.moment_residuals)
    # recheck on a third quadrature, unrelated to both internal grids
    alt = kernel_moments(K, order=12, ratio=1.3, n_core=5, t_min=1e-8)
    assert all(abs(m) < 1e-6 for m in alt)


def test_truncated_kernel_remainder():
    K = build_truncated_kernel(3)
    # R = G - K vanishes where K matches the heat kernel ...
    assert heat_kernel(0.1, 0.2, 3) - K(0.1, 0.2) == pytest.approx(
        0.0, abs=1e-15)
    # ... and carries the full heat kernel outside the support
    t, r = 0.6, 0.8
    assert K(t, r) == 0.0
    assert heat_kernel(t, r, 3) - K(t, r) == pytest.approx(
        heat_kernel(t, r, 3))


def test_truncated_kernel_unreachable_tolerance_raises():
    with pytest.raises(KernelConstructionError) as exc:
        build_truncated_kernel(3, tol=1e-16)
    assert len(exc.value.residuals) == 3


def test_truncated_kernel_equals_heat_kernel_inside():
    K = build_truncated_kernel(3)
    t = np.array([0.05, 0.1, 0.2])
    r = np.array([0.1, 0.3, 0.45])
    T, R = np.meshgrid(t, r, indexing="ij")
    inside = R ** 2 + T < K.inner
    G = heat_kernel(T, R, 3)
    assert np.allclose(K(T, R)[inside], G[inside], rtol=0, atol=0)


def test_truncated_kernel_support():
    K = build_truncated_kernel(3)
    assert K(0.6, 0.7) == 0.0        # q = 1.09 > 1
    assert K(-0.05, 0.1) == 0.0      # t <= 0
    assert K(1.2, 0.0) == 0.0
    assert K(0.3, 0.2) != 0.0


def _insert_edges_loop(edges, points, eps=1e-12):
    # the per-row rule: each point in turn, against the edges added so far
    out = sorted(edges)
    for p in points:
        if out[0] + eps < p < out[-1] - eps and \
                min(abs(p - e) for e in out) > eps:
            out.append(p)
    return sorted(out)


def _moments_one_function(func, d, monos, order=10, t_min=1e-9, ratio=1.8,
                          n_core=6):
    # one row-wise quadrature pass per function, one t row at a time; the
    # defaults are the construction grid
    tg = panel_grid(_insert_edges_loop(
        geometric_edges(0.0, 1.0, t_min, ratio), [0.5]), order)
    out = np.zeros(len(monos))
    for t, wt in zip(tg.nodes, tg.weights):
        cut = min(6.0 * math.sqrt(max(t, 1e-300)), 1.0)
        edges = list(np.linspace(0.0, cut, n_core + 1))
        if cut < 1.0:
            edges += list(np.linspace(cut, 1.0, 7)[1:])
        breaks = [math.sqrt(v - t) for v in (0.5, 1.0) if v > t]
        rg = panel_grid(_insert_edges_loop(edges, breaks), order)
        shell = kernels._shell(rg, d)
        vals = func(np.full_like(rg.nodes, t), rg.nodes)
        for j, m in enumerate(monos):
            out[j] += wt * float(shell @ (vals * m(t, rg.nodes)))
    return tuple(float(v) for v in out)


@pytest.mark.parametrize("d", [2, 3])
def test_truncated_kernel_matches_four_pass_reference(d):
    # the loop version: base and each annulus shape get a pass of their own
    raw = kernels.TruncatedKernel(d=d)
    monos = kernels._moment_monomials()

    def base(t, r):
        return heat_kernel(t, r, d) * raw.cutoff(np.square(r) + np.abs(t))

    shapes = [(lambda t, r, i=i: raw._bump_shapes(t, r)[i]) for i in range(3)]
    A = np.array([_moments_one_function(sh, d, monos) for sh in shapes]).T
    g = np.array(_moments_one_function(base, d, monos))
    coeffs = tuple(np.linalg.solve(A, -g))
    ref = replace(raw, bump_coeffs=coeffs)
    K = build_truncated_kernel(d)
    assert K.bump_coeffs == coeffs
    assert K.moment_residuals == kernel_moments(ref)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_moments_match_per_row_loop(d):
    # the verification pass against the loop, on kernel_moments' own grid
    K = build_truncated_kernel(d)
    monos = kernels._moment_monomials()
    assert K.moment_residuals == _moments_one_function(
        K, d, monos, order=9, t_min=1e-10, ratio=1.5, n_core=8)


# ---------------------------------------------------------------------------
# mollified kernel
# ---------------------------------------------------------------------------

def test_mollified_kernel_support_and_consistency():
    K = build_truncated_kernel(3)
    eps = 2.0 ** -3
    keps = mollify_kernel(K, eps)
    assert keps(keps.t_support[0] - 1e-6, 0.1) == 0.0
    assert keps(2.0, 0.1) == 0.0
    # C1 computed two ways: native grid sum vs the correlation at the origin
    c1 = keps.squared_integral()
    [q0] = correlate(keps, (keps,), np.array([0.0]), np.array([0.0]))
    q00 = float(q0[0, 0])
    assert q00 == pytest.approx(c1, rel=1e-4)


@pytest.mark.parametrize("d", [2, 3])
def test_spline_matches_scipy_not_a_knot(d):
    # the package's cubic spline against scipy's CubicSpline on the kernel
    # grids _radial_basis fits it on: nodes [0, r nodes], several columns
    # (cardinal splines and kernel rows), values and antiderivative
    keps = mollify_kernel(build_truncated_kernel(d), 2.0 ** -3)
    u = np.r_[0.0, keps.r_grid.nodes]
    f = keps.vals[np.any(keps.vals, axis=1)][::7].T   # flat down to 0
    rows = np.c_[np.r_[f[:1], f], np.eye(u.size)[:, ::5]]
    ours = kernels._Spline.not_a_knot(u, rows)
    ref = CubicSpline(u, rows)
    x = np.r_[u, np.linspace(0.0, u[-1], 2001)]
    scale = np.max(np.abs(rows), axis=0)
    assert np.max(np.abs(ours(x) - ref(x)) / scale) < 1e-14
    got = ours.antiderivative()(x)
    want = ref.antiderivative()(x)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) < 1e-14
    # arguments are clamped to the node range, not extrapolated
    np.testing.assert_array_equal(ours(np.array([-1.0, u[-1] + 1.0])),
                                  ours(np.array([0.0, u[-1]])))


@pytest.mark.parametrize("d", [2, 3])
def test_mollified_kernel_matches_rect_bivariate_spline(d):
    # pointwise values and profile rows against FITPACK's bicubic s = 0
    # spline, which clamps to the node range; the samples reach below the
    # first t node, beyond the last r node and outside the support
    keps, kq = _keps_kq(d)
    rng = np.random.default_rng(5)
    for B in (keps, kq):
        tn, rn = B.t_grid.nodes, B.r_grid.nodes
        ref = RectBivariateSpline(tn, rn, B.vals, kx=3, ky=3)
        t = np.r_[rng.uniform(B.t_support[0] - 0.05, B.t_support[1] + 0.05,
                              3000), B.t_support[0], tn[0], B.t_support[1]]
        r = np.r_[rng.uniform(0.0, B.r_support + 0.05, 3000), 0.0,
                  rn[-1], B.r_support]
        inside = ((t >= B.t_support[0]) & (t <= B.t_support[1])
                  & (r <= B.r_support))
        want = np.where(inside, ref(np.clip(t, tn[0], tn[-1]),
                                    np.clip(r, rn[0], rn[-1]), grid=False),
                        0.0)
        scale = np.max(np.abs(B.vals))
        assert np.max(np.abs(B(t, r) - want)) < 1e-14 * scale
        assert np.any(~inside) and np.any(t[inside] < tn[0])
        ts = np.sort(t[(t >= B.t_support[0]) & (t <= B.t_support[1])])
        rows = ref(np.clip(ts, tn[0], tn[-1]), rn)
        assert np.max(np.abs(B.profile(ts) - rows)) < 1e-14 * scale


def test_profile_rows_match_pointwise_evaluation():
    # rows come back in the order asked, whatever the order of the times
    keps, kq = _keps_kq(3)
    t = np.array([0.3, -0.01, 0.3, 0.05, 2.5, 0.0, 0.9])
    for B in (keps, kq):
        rows = B.profile(t)
        r = B.r_grid.nodes[None, :]
        inside = (t >= B.t_support[0]) & (t <= B.t_support[1])
        want = np.where(inside[:, None], B(t[:, None], r), 0.0)
        assert np.any(want)
        np.testing.assert_allclose(rows, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -5])
def test_accuracy_ladder_converges(eps):
    # each level refines the outer panels too, so the C1 gap between
    # consecutive levels shrinks; at a fixed panel ratio it grows at 2^-3
    K = build_truncated_kernel(3)
    c1 = [mollify_kernel(K, eps, level=n).squared_integral()
          for n in (0, 1, 2)]
    assert abs(c1[2] - c1[1]) * 3.0 <= abs(c1[1] - c1[0])


def test_accuracy_levels_below_minus_one_rejected():
    with pytest.raises(ValueError, match="level"):
        mollify_kernel(build_truncated_kernel(3), 0.25, level=-2)


def test_mollified_kernel_converges_to_kernel():
    # away from the origin the kernel is smooth, so K_eps -> K
    K = build_truncated_kernel(3)
    t0, r0 = 0.09, 0.25
    errs = []
    for eps in (2.0 ** -3, 2.0 ** -5):
        keps = mollify_kernel(K, eps)
        errs.append(abs(float(keps(t0, r0)) - float(K(t0, r0))))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-3 * abs(float(K(t0, r0)))


@pytest.mark.parametrize("d", [2, 3])
def test_correlate_windowed_heat_oracle(d):
    # windowed heat kernels correlate to an exact erfc / E1 expression
    def window_kernel(a, b):
        tg = panel_grid(np.linspace(a, b, 30), 8)
        rg = panel_grid(geometric_edges(0.0, 4.0, 1e-4, 1.6), 10)
        vals = heat_kernel(tg.nodes[:, None], rg.nodes[None, :], d)
        return MollifiedKernel(d=d, t_grid=tg, r_grid=rg, vals=vals,
                               t_support=(a, b), r_support=4.0)

    def exact(t, r, a1, b1, a2, b2):
        U1 = 2 * max(a1, t + a2) - t
        U2 = 2 * min(b1, t + b2) - t
        if d == 3:
            return (erfc(r / (2 * math.sqrt(U2)))
                    - erfc(r / (2 * math.sqrt(U1)))) / (8 * math.pi * r)
        return (exp1(r * r / (4 * U2)) - exp1(r * r / (4 * U1))) \
            / (8 * math.pi)

    # nested windows: the shifted support of A stays inside B's window for
    # every tested lag, so the overlap needs no boundary resolution
    A, B = window_kernel(0.05, 0.3), window_kernel(0.01, 0.45)
    t_out = np.array([-0.05, 0.0, 0.04])
    rho = np.array([0.1, 0.5, 1.2])
    [got] = correlate(A, (B,), t_out, rho)
    # slices outside B's t support are zero rows
    outside = B.profile(np.array([0.2, 0.5, -0.1]))
    assert np.any(outside[0]) and not np.any(outside[1:])
    want = np.array([[exact(t, r, 0.05, 0.3, 0.01, 0.45) for r in rho]
                     for t in t_out])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


def _keps_kq(d):
    keps = mollify_kernel(build_truncated_kernel(d), 0.25, level=-1)
    return keps, kq_kernel(keps, OU, 0.5, level=-1)


@pytest.mark.parametrize("d", [2, 3])
def test_correlate_stacked_right_kernels_match_single_calls(d):
    # one pass over the rows of A with both Bs stacked gives, row for row,
    # what one pass per B gives; at negative lags K^Q_eps (support up to
    # 1 + 2T) has slices inside its window where K_eps has none
    keps, kq = _keps_kq(d)
    t_out = np.array([-0.9, -0.3, 0.0, 0.01, 0.2, 0.7, 1.3])
    rho = np.array([0.0, 0.05, 0.3, 0.9])
    q0, q1 = correlate(keps, (keps, kq), t_out, rho)
    for got, B in ((q0, keps), (q1, kq)):
        [want] = correlate(keps, (B,), t_out, rho)
        assert np.any(want)
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))


def test_correlate_rejects_right_kernels_on_different_r_grids():
    keps, _ = _keps_kq(3)
    rg = panel_grid(np.linspace(0.0, keps.r_support, 9), 6)
    other = MollifiedKernel(
        d=3, t_grid=keps.t_grid, r_grid=rg,
        vals=keps(keps.t_grid.nodes[:, None], rg.nodes[None, :]),
        t_support=keps.t_support, r_support=keps.r_support)
    with pytest.raises(ValueError, match="r grid"):
        correlate(keps, (keps, other), np.array([0.0]), np.array([0.0]))
    # no right kernel at all, and a negative output radius
    with pytest.raises(ValueError, match="right kernel"):
        correlate(keps, (), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="radii"):
        correlate(keps, (keps,), np.array([0.0]), np.array([0.1, -0.3]))


def _correlate_per_row(A, Bs, t_out, rho_out):
    # the reference: one radial_convolve per row of A, every B's in-window
    # slices stacked as g
    supports = np.array([B.t_support for B in Bs])
    outs = [np.zeros((t_out.size, rho_out.size)) for _ in Bs]
    for t1, w1, a_row in zip(A.t_grid.nodes, A.t_grid.weights, A.vals):
        ts = t1 - t_out
        insides = (ts >= supports[:, :1]) & (ts <= supports[:, 1:])
        counts = np.count_nonzero(insides, axis=1)
        if not counts.any():
            continue
        conv = w1 * radial_convolve(
            A.d, A.r_grid.nodes, a_row, Bs[0].r_grid,
            np.concatenate([B.profile(ts[m]) for B, m in zip(Bs, insides)]),
            rho_out)
        for out, m, part in zip(outs, insides,
                                np.split(conv, np.cumsum(counts)[:-1])):
            out[m] += part
    return outs


@pytest.mark.parametrize("d", [2, 3])
def test_correlate_matches_per_row_reference(d):
    keps, kq = _keps_kq(d)
    t_out = np.array([-0.9, -0.3, 0.0, 0.01, 0.2, 0.7, 1.3])
    rho = np.r_[0.0, np.linspace(0.01, 1.2, 59)]
    # A spans more than one block of rows
    block = kernels._F_BLOCK // (rho.size * keps.r_grid.nodes.size
                                 * (kernels._N_THETA if d == 2 else 1))
    assert keps.t_grid.nodes.size > max(block, 1)
    got = correlate(keps, (keps, kq), t_out, rho)
    for g, want in zip(got, _correlate_per_row(keps, (keps, kq), t_out, rho)):
        assert np.any(want)
        np.testing.assert_allclose(g, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("d", [2, 3])
def test_correlate_memory_does_not_grow_with_rows_of_A(d):
    keps, _ = _keps_kq(d)

    def resampled(n_panels):
        tg = panel_grid(np.linspace(*keps.t_support, n_panels + 1), 5)
        vals = keps(tg.nodes[:, None], keps.r_grid.nodes[None, :])
        return MollifiedKernel(d=d, t_grid=tg, r_grid=keps.r_grid, vals=vals,
                               t_support=keps.t_support,
                               r_support=keps.r_support)

    t_out = np.linspace(0.0, 1.0, 30)
    rho = np.r_[0.0, keps.r_grid.nodes]

    def peak(A, rho):
        tracemalloc.start()
        try:
            correlate(A, (keps,), t_out, rho)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = resampled(20), resampled(40)
    block = kernels._F_BLOCK // (rho.size * keps.r_grid.nodes.size)
    assert small.t_grid.nodes.size >= 2 * block
    assert large.t_grid.nodes.size == 2 * small.t_grid.nodes.size
    # the block budget fixes the buffers, not the rows of A
    p_small, p_large = peak(small, rho), peak(large, rho)
    assert p_large < 1.1 * p_small, (p_small, p_large)
    # one call holds the operator G, (Nf, Ns, Nrho) doubles, and buffers of
    # about _F_BLOCK entries; at 201 output radii G dominates (about 1.6 G
    # in all), while building G in one step holds 28 G in d = 2 (the
    # (rho, s, theta, column) spline samples) and 3 G in d = 3
    rho = np.linspace(0.0, keps.r_support, 201)
    g_bytes = 8 * keps.r_grid.nodes.size ** 2 * rho.size
    assert peak(keps, rho) < 2.5 * g_bytes, (peak(keps, rho), g_bytes)


def test_kernel_constants_origin_values_match_origin_correlation():
    # Q1(0), Q2(0) are read off the grid passes; an origin-only call agrees
    c = kernel_constants(3, 0.25, level=-1)
    keps, kq = _keps_kq(3)
    origin = (np.array([0.0]), np.array([0.0]))
    [q1] = correlate(keps, (kq,), *origin)
    [q2] = correlate(kq, (kq,), *origin)
    assert c.Q1_0 == pytest.approx(float(q1[0, 0]), rel=1e-13)
    assert c.Q2_0 == pytest.approx(float(q2[0, 0]), rel=1e-13)


def test_kernel_constants_builds_one_correlation_operator(monkeypatch):
    # the two correlation passes share the r grid of K_eps and the output
    # radii, so one G serves both: one more besides the mollification's
    basis, shapes = kernels._radial_basis, []

    def counted(*args, **kwargs):
        G = basis(*args, **kwargs)
        shapes.append(G.shape)
        return G

    kernel = build_truncated_kernel(3)
    monkeypatch.setattr(kernels, "_radial_basis", counted)
    kernel_constants(3, 0.25, kernel=kernel, level=-1, full=True)
    assert len(shapes) == 2


# ---------------------------------------------------------------------------
# slow-channel weight and kernel
# ---------------------------------------------------------------------------

def test_smooth_taper_profile():
    T = 0.5
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.2, -0.1])
    v = smooth_taper(s, T)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0 and v[6] == 0.0
    # C^1 at the joints: finite differences stay small
    h = 1e-6
    for joint in (T, 2 * T):
        left = (smooth_taper(joint, T) - smooth_taper(joint - h, T)) / h
        right = (smooth_taper(joint + h, T) - smooth_taper(joint, T)) / h
        assert abs(left - right) < 1e-4


def test_matrix_weight_scalar_is_tapered_exponential():
    T = 0.5
    q = matrix_weight(np.array([2.5]), np.array([[-1.7]]), 0, T)
    s = np.linspace(-0.2, 1.2, 57)
    want = 2.5 * np.exp(-1.7 * np.clip(s, 0.0, None)) * smooth_taper(s, T)
    assert np.allclose(q(s), want, rtol=2e-15, atol=0.0)


def test_matrix_weight_two_channels():
    from scipy.linalg import expm
    A1 = np.array([0.3, -0.1])
    A2 = np.array([[-2.0, 1.0], [1.0, -1.0]])
    T = 0.5
    for ch in (0, 1):
        q = matrix_weight(A1, A2, ch, T)
        for s in (0.0, 0.2, 0.45):
            want = (expm(s * A2) @ A1)[ch]
            assert q(np.array(s)) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("A1, A2, channel, at_half", [
    # cascade: Q_1(s) = s e^-s
    ([1.0, 0.0], [[-1.0, 0.0], [1.0, -1.0]], 1, 0.5 * math.exp(-0.5)),
    # Jordan block: Q_0(s) = (1 + s/2) e^-s
    ([1.0, 0.5], [[-1.0, 1.0], [0.0, -1.0]], 0, 1.25 * math.exp(-0.5)),
], ids=["cascade", "jordan"])
def test_matrix_weight_defective(A1, A2, channel, at_half):
    # a defective A2 has no eigenvector basis; e^{s A2} A1 still holds
    from scipy.linalg import expm
    T = 0.5
    s = np.linspace(0.0, 2 * T, 201)
    for ch in (0, 1):
        want = np.array([(expm(x * np.array(A2)) @ A1)[ch] for x in s]) \
            * smooth_taper(s, T)
        got = matrix_weight(A1, A2, ch, T)(s)
        assert np.max(np.abs(got - want)) < 1e-12
    assert matrix_weight(A1, A2, channel, T)(0.5) == pytest.approx(
        at_half, rel=1e-15)


def test_matrix_weight_stiff_jordan_block():
    # e^{s A2} = e^{-30 s} [[1, 5 s], [0, 1]]: relative accuracy down to
    # e^-30 near s = 2T, where the steps E^k A1 compound (the taper is 0
    # at 2T itself)
    T = 0.5
    s = np.linspace(0.0, 2 * T, 201)[:-1]
    A1, A2 = [1.0, 0.5], [[-30.0, 5.0], [0.0, -30.0]]
    want = np.exp(-30.0 * s) * smooth_taper(s, T) \
        * np.stack([1.0 + 2.5 * s, np.full_like(s, 0.5)])
    for ch in (0, 1):
        got = matrix_weight(A1, A2, ch, T)(s)
        assert np.max(np.abs(got - want[ch]) / want[ch]) < 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_kq_exact_window_oracle(d):
    # with Q = 1 and a horizon past the support, K^Q(t, r) is an exact
    # integral of the heat kernel wherever the u window stays in the inner
    # region q <= 1/2
    K = build_truncated_kernel(d)
    KQ = kq_exact(K, lambda s: np.ones_like(np.asarray(s, dtype=float)),
                  T=5.0)
    for (t, r) in [(0.2, 0.05), (0.1, 0.2), (0.24, 0.45)]:
        b = min(t, K.inner - r * r)
        assert b == t, "test point must stay inside the inner region"
        if d == 3:
            want = erfc(r / (2 * math.sqrt(t))) / (4 * math.pi * r)
        else:
            want = exp1(r * r / (4 * t)) / (4 * math.pi)
        assert float(KQ(np.array(t), np.array(r))) == pytest.approx(
            want, rel=1e-8)


def test_kq_kernel_approaches_exact():
    d, T = 3, 0.5
    K = build_truncated_kernel(d)
    Q = OU
    KQ0 = kq_exact(K, Q, T)
    t, r = 0.3, 0.2
    prev = None
    for eps in (2.0 ** -3, 2.0 ** -5):
        kq = kq_kernel(mollify_kernel(K, eps), Q, T)
        err = abs(float(kq(t, r)) - float(KQ0(np.array(t), np.array(r))))
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 2e-3 * abs(float(KQ0(np.array(t), np.array(r))))


def _kq_per_row(keps, Q, T, level):
    # the reference: one graded u grid per output row, with K_eps's t spline
    # evaluated at that row's own nodes
    t_lo, t_hi = keps.t_support[0], keps.t_support[1] + 2.0 * T
    eps_scale = max(keps.t_grid.nodes[0] - t_lo, 1e-12)
    h_min = eps_scale / 4.0
    res = kernels._resolution(level)
    t_grid = panel_grid(kernels._graded_span(t_lo, t_hi, eps_scale,
                                             res.ratio), res.order)
    vals = np.zeros((t_grid.nodes.size, keps.r_grid.nodes.size))
    for i, ti in enumerate(t_grid.nodes):
        lo = max(ti - 2.0 * T, keps.t_support[0])
        hi = min(ti, keps.t_support[1])
        if hi <= lo:
            continue
        g = panel_grid(kernels._graded_span(lo, hi, h_min, res.ratio),
                       res.order)
        qs = np.asarray(Q(ti - g.nodes), dtype=float)
        vals[i] = (g.weights * qs) @ keps.profile(g.nodes)
    return t_grid, vals


_KQ_WEIGHTS = {
    "ou": OU,
    "matrix": matrix_weight([1.0, 0.5], [[-1.0, 0.3], [0.2, -2.0]], 1, 0.5),
}


@pytest.mark.parametrize("weight", sorted(_KQ_WEIGHTS))
@pytest.mark.parametrize("level", [-1, 0, 1])
@pytest.mark.parametrize("d", [2, 3])
def test_kq_kernel_matches_per_row_reference(d, level, weight):
    # one contraction over the spline coefficients gives the per-row
    # quadrature to rounding; rows the reference leaves zero stay exact zeros
    keps = mollify_kernel(build_truncated_kernel(d), 0.25, level=level)
    Q = _KQ_WEIGHTS[weight]
    kq = kq_kernel(keps, Q, 0.5, level)
    t_grid, want = _kq_per_row(keps, Q, 0.5, level)
    assert np.array_equal(kq.t_grid.nodes, t_grid.nodes)
    assert kq.t_support == (keps.t_support[0], keps.t_support[1] + 1.0)
    assert np.any(want)
    np.testing.assert_allclose(kq.vals, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))
    zero = ~np.any(want, axis=1)
    assert not np.any(kq.vals[zero])


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_kernel_constants_structure():
    c = kernel_constants(3, 2.0 ** -3, level=-1)
    assert c.C1 > 0 and c.C2 is not None
    assert set(c.I) == {(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)}
    # C2 = 2 int K Q0^2 and I00 = int K Q0 Q0 share the quadrature exactly
    assert c.C2 == pytest.approx(2.0 * c.I[(0, 0)], rel=1e-13)
    assert c.Q1_0 > 0 and c.Q2_0 > 0
    d = c.as_dict()
    assert d["I"]["I00"] == c.I[(0, 0)]
    assert d["eps"] == 2.0 ** -3


# kernel_constants(d, 0.25, ...) recorded before correlate went blockwise
# (level 0 spans several blocks of rows in d = 3); (2, 0) recorded before
# the radial convolution became one cardinal-spline operator
_PINNED_CONSTANTS = {
    (3, 0): {
        "C1": 0.6380342602066432, "C2": 0.003827970704200851,
        "Q1_0": 0.012564668823299669, "Q2_0": 0.011929260086360936,
        (0, 0): 0.0019139853521004254, (0, 1): 2.9285828757820405e-05,
        (1, 1): 1.3947738477530424e-06, (0, 2): 4.959660320233209e-05,
        (1, 2): 2.80836192147854e-07, (2, 2): 1.5715797350942853e-06,
    },
    (2, 0): {
        "C1": 1.0969922442780116, "C2": 0.018539928557151242,
        "Q1_0": 0.01877994142075299, "Q2_0": 0.02027411810669522,
        (0, 0): 0.009269964278575621, (0, 1): 6.169612539206679e-05,
        (1, 1): 1.678447651229153e-05, (0, 2): 0.00020591884199580584,
        (1, 2): -2.9074635245825998e-06, (2, 2): 6.318694534246388e-06,
    },
    (2, -1): {
        "C1": 1.1412044922894486, "C2": 0.017943867390539315,
        "Q1_0": 0.014804672754064552, "Q2_0": 0.018578210006807247,
        (0, 0): 0.008971933695269657, (0, 1): 6.866046840175107e-05,
        (1, 1): 1.3844636729029418e-05, (0, 2): 0.00018027307741321885,
        (1, 2): -3.335898379103955e-06, (2, 2): 5.809560346677194e-06,
    },
}


@pytest.mark.parametrize("d, level", sorted(_PINNED_CONSTANTS))
def test_kernel_constants_pinned_values(d, level):
    c = kernel_constants(d, 0.25, level=level, full=True)
    got = {"C1": c.C1, "C2": c.C2, "Q1_0": c.Q1_0, "Q2_0": c.Q2_0, **c.I}
    want = _PINNED_CONSTANTS[(d, level)]
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key


def test_kernel_constants_d2_skips_correlations():
    c = kernel_constants(2, 2.0 ** -3)
    assert c.C2 is None and c.I == {}
    assert c.C1 > 0


def test_kernel_constants_error_estimate():
    # the reported error is the gap to the next finer level
    c = kernel_constants(2, 2.0 ** -3, estimate_errors=True)
    fine = kernel_constants(2, 2.0 ** -3, level=1)
    assert c.errors["C1"] == abs(c.C1 - fine.C1)
    assert c.errors["C1"] < 0.02 * c.C1


def test_assemble_counterterms():
    ct = assemble_C(beta1=1.5, gamma1=3.0, gamma2=(0.6,), C1=2.0, C2=0.01)
    C_eps = 3 * 2.0 + 9 * 3.0 * 0.01
    assert ct.C_eps == pytest.approx(C_eps, rel=1e-14)
    assert ct.C0 == pytest.approx(-1.5 / 3 * C_eps, rel=1e-14)
    assert ct.C1_sys == pytest.approx(-3.0 * C_eps, rel=1e-14)
    assert ct.C2_sys[0] == pytest.approx(-0.6 / 3 * C_eps, rel=1e-14)


def test_assemble_counterterms_d2_has_no_C2_part():
    ct = assemble_C(1.0, 2.0, (1.0, 0.5), C1=1.2, C2=0.0)
    assert ct.C_eps == pytest.approx(3.6, rel=1e-14)
    assert len(ct.C2_sys) == 2


# ---------------------------------------------------------------------------
# divergence rates (quick versions; the acceptance suite runs the full sweeps)
# ---------------------------------------------------------------------------

def test_d2_log_slope_quick():
    eps = [2.0 ** -k for k in (3, 4, 5)]
    vals = [g_eps_squared(2, e) for e in eps]
    slope = np.polyfit(np.log(1 / np.array(eps)), vals, 1)[0]
    assert slope == pytest.approx(1 / (4 * math.pi), rel=0.02)


def test_d3_eps_c1_rate_quick():
    K = build_truncated_kernel(3)
    vals = {}
    for k in (5, 6):
        eps = 2.0 ** -k
        vals[k] = eps * mollify_kernel(K, eps).squared_integral()
    assert abs(vals[6] - vals[5]) / vals[6] < 0.15


def test_verify_bounds_quick():
    checks = verify_appendix_bounds(3, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                    theta=0.25, trend_tol=0.1)
    assert len(checks) == 4
    for c in checks:
        assert isinstance(c, BoundCheck)
        assert len(c.ratios) == 3
        assert c.passed, f"{c.name}: trend {c.trend:+.3f}"


@pytest.fixture(scope="module")
def d2_checks():
    # `verify-bounds --dim 2` at its default scales, about 0.2 s
    return verify_appendix_bounds(2, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                  theta=0.25, trend_tol=0.1)


def test_verify_bounds_d2_growth_rate_and_kq(d2_checks):
    growth, rate, kqsq, _ = d2_checks
    assert rate.name == "int K_eps^2 / log(1/eps) bounded"
    for c in (growth, rate, kqsq):
        assert len(c.ratios) == 3
        assert c.passed, f"{c.name}: trend {c.trend:+.3f}"


def test_verify_bounds_d2_stability(d2_checks):
    stab = d2_checks[3]
    assert stab.name.startswith("sup |K^Q - K^Q_eps|")
    assert stab.passed, f"{stab.name}: trend {stab.trend:+.4f}"


def test_verify_bounds_d2_five_scales():
    # the default scales and two finer ones, where a grid error the
    # estimate misses would grow with eps^-theta
    checks = verify_appendix_bounds(2, [2.0 ** -k for k in range(3, 8)],
                                    theta=0.25, trend_tol=0.1)
    for c in checks:
        assert len(c.ratios) == 5
        assert c.passed, f"{c.name}: trend {c.trend:+.4f}"


def test_verify_bounds_d2_stability_fails_on_a_coarse_estimate(monkeypatch):
    # negative control: the estimate built on level -1's grids (the gap
    # level 0 - level -1) misses the level-0 error, and the check fails
    resolution = kernels._resolution
    monkeypatch.setattr(kernels, "_resolution",
                        lambda level: resolution(-1 if level == 1 else level))
    stab = verify_appendix_bounds(2, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                  theta=0.25, trend_tol=0.1)[3]
    assert not stab.passed, f"{stab.name}: trend {stab.trend:+.4f}"


def test_kq_vanishes_for_zero_slow_coupling():
    # decoupled slow channel: zero weight must give an identically zero K^Q
    K = build_truncated_kernel(3)
    keps = mollify_kernel(K, 2.0 ** -3)
    kq = kq_kernel(keps, lambda s: np.zeros_like(np.asarray(s, float)))
    assert float(np.max(np.abs(kq.vals))) == 0.0


def test_plain_and_truncated_c1_differ_boundedly():
    # both squared masses diverge as eps -> 0; their gap must stay put
    K = build_truncated_kernel(3)
    gaps, c1s = [], []
    for k in (3, 4, 5):
        eps = 2.0 ** -k
        c1 = mollify_kernel(K, eps).squared_integral()
        c1_plain = g_eps_squared(3, eps)
        c1s.append(c1)
        gaps.append(c1_plain - c1)
    assert c1s[-1] / c1s[0] > 2.0
    assert max(gaps) - min(gaps) < 0.2 * (c1s[-1] - c1s[0])


# ---------------------------------------------------------------------------
# support-only evaluation: the dense formulas as oracle, and bitwise pins
# ---------------------------------------------------------------------------

# The kernel pieces as formulas evaluated everywhere, then clipped or
# selected: the package evaluates them where they are not exactly 0 or 1
# only, and must give these bits.

def _dense_heat_kernel(t, r, d):
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.zeros(np.broadcast(t, r).shape)
    pos = t > 0
    tp = np.where(pos, t, 1.0)
    np.copyto(out, (4.0 * math.pi * tp) ** (-d / 2.0)
              * np.exp(-np.square(r) / (4.0 * tp)), where=pos)
    return out


def _dense_smoothstep(s):
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s ** 4 * (35.0 - 84.0 * s + 70.0 * s ** 2 - 20.0 * s ** 3)


def _dense_annulus_bump(K, q):
    q = np.asarray(q, dtype=float)
    mid = (q - K.inner) * (K.outer - q)
    width = (K.outer - K.inner) / 2.0
    core = np.clip(mid, 0.0, None) / width ** 2
    return core ** 4


def _dense_kernel(K, t, r):
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    q = np.square(r) + np.abs(t)
    with np.errstate(invalid="ignore"):     # inf * 0 off the support
        cutoff = 1.0 - _dense_smoothstep((q - K.inner) / (K.outer - K.inner))
        out = _dense_heat_kernel(t, r, K.d) * cutoff
        base = _dense_annulus_bump(K, q) * (t > 0)
        for c, shape in zip(K.bump_coeffs,
                            (base, base * t, base * np.square(r))):
            out = out + c * shape
    return np.where((t > 0) & (q < K.outer), out, 0.0)


def _dense_taper(s, T):
    s = np.asarray(s, dtype=float)
    x = np.clip((s - T) / T, 0.0, 1.0)
    step = x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)
    return np.where(s < 0, 0.0, 1.0 - step)


def _dense_t_profile(tau):
    tau = np.asarray(tau, dtype=float)
    return (315.0 / 64.0) * np.clip(1.0 - 16.0 * tau ** 2, 0.0, None) ** 4


def _dense_x_profile(s, d):
    s = np.asarray(s, dtype=float)
    return np.clip(1.0 - 4.0 * s ** 2, 0.0, None) ** 4 / kernels._bump_norm_x(d)


def _assert_same_bits(got, want):
    """Equal shapes and values, NaN where NaN, and the signs of zeros."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[num], np.signbit(want)[num])


_EDGES = np.array([0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
                   np.nextafter(1.0, 2.0), -1e-300, 0.5, np.nan, np.inf, -np.inf])


def _space_time_points(rng, n=3000):
    """(t, r) pairs over and around the kernel support: t <= 0, graded small
    t, q exactly at inner and outer and beyond, exp arguments around -745,
    and NaN and inf in either coordinate."""
    t = [rng.uniform(-0.3, 1.3, n), 10.0 ** rng.uniform(-12.0, 0.0, n)]
    r = [rng.uniform(0.0, 1.3, n), rng.uniform(0.0, 1.1, n)]
    k = np.arange(0, 64) / 64.0             # dyadic: q lands exactly
    for v in (0.5, 1.0):
        keep = k * k < v
        t.append(v - k[keep] ** 2)
        r.append(k[keep])
    tt = 10.0 ** rng.uniform(-6.0, -0.5, n)
    t.append(tt)
    r.append(np.sqrt(4.0 * tt * rng.uniform(740.0, 750.0, n)))
    t.append(np.array([0.0, -0.0, 1e-200, 0.3, np.nan, 0.2, np.inf, 0.1]))
    r.append(np.array([0.1, 0.2, 0.5, np.nan, 0.1, np.inf, 0.3, 0.0]))
    return np.concatenate(t), np.concatenate(r)


@pytest.mark.parametrize("d", [2, 3])
def test_support_only_kernel_equals_dense_formula(d):
    rng = np.random.default_rng(1000 + d)
    K = build_truncated_kernel(d)
    t, r = _space_time_points(rng)
    _assert_same_bits(K(t, r), _dense_kernel(K, t, r))
    _assert_same_bits(heat_kernel(t, r, d), _dense_heat_kernel(t, r, d))
    # broadcast shapes, and a 0-d operand against an array
    tb, rb = t[:40, None], r[None, ::50]
    _assert_same_bits(K(tb, rb), _dense_kernel(K, tb, rb))
    _assert_same_bits(heat_kernel(tb, rb, d), _dense_heat_kernel(tb, rb, d))
    _assert_same_bits(K(0.01, r), _dense_kernel(K, 0.01, r))
    # 0-d scalars run numpy's scalar paths, as the dense formula does
    for ti, ri in zip(t[::97], r[::97]):
        _assert_same_bits(K(ti, ri), _dense_kernel(K, ti, ri))
        _assert_same_bits(heat_kernel(float(ti), float(ri), d),
                          _dense_heat_kernel(float(ti), float(ri), d))


def test_heat_kernel_exp_cut_at_underflow():
    # arguments -r^2/4t straddling -746 give the dense bits on both sides
    a = np.linspace(744.0, 748.0, 4001)
    t = np.full_like(a, 1e-3)
    r = np.sqrt(4.0 * t * a)
    for d in (2, 3):
        got, want = heat_kernel(t, r, d), _dense_heat_kernel(t, r, d)
        _assert_same_bits(got, want)
        assert np.all(got[a > 746.0 + 1e-9] == 0.0) and got[0] > 0.0
    # an overflowing prefactor is 0 where exp is, not inf * 0
    with np.errstate(over="ignore"):
        assert heat_kernel(1e-300, 0.5, 3) == 0.0
        assert heat_kernel(1e-300, 0.0, 3) == np.inf


def test_clipped_polynomials_equal_dense_formulas():
    rng = np.random.default_rng(77)
    s = np.concatenate([rng.uniform(-0.5, 1.5, 4000), _EDGES])
    K = build_truncated_kernel(3)
    q = np.concatenate([rng.uniform(0.0, 1.5, 4000), [K.inner, K.outer, 0.75],
                        _EDGES])
    tau = np.concatenate([rng.uniform(-0.4, 0.4, 4000), [0.25, -0.25, 0.0],
                          _EDGES])
    x = np.concatenate([rng.uniform(0.0, 0.7, 4000), [0.5, 0.0], _EDGES])
    taper = np.concatenate([rng.uniform(-0.2, 1.4, 4000), [0.5, 1.0], _EDGES])
    spec = MollifierSpec(3)
    cases = [
        (kernels._smoothstep_c3, _dense_smoothstep, s),
        (K.annulus_bump, lambda q: _dense_annulus_bump(K, q), q),
        (K.cutoff, lambda q: 1.0 - _dense_smoothstep(
            (q - K.inner) / (K.outer - K.inner)), q),
        (lambda s: smooth_taper(s, 0.5), lambda s: _dense_taper(s, 0.5),
         taper),
        (spec.t_profile, _dense_t_profile, tau),
        (spec.x_profile, lambda s: _dense_x_profile(s, 3), x),
    ]
    for new, dense, vals in cases:
        _assert_same_bits(new(vals), dense(vals))
        _assert_same_bits(new(vals.reshape(-1, 1)[:60] + vals[:7]),
                          dense(vals.reshape(-1, 1)[:60] + vals[:7]))
        for v in vals[::211]:
            _assert_same_bits(new(v), dense(v))
        for v in _EDGES:
            _assert_same_bits(new(v), dense(v))


def _graded_span_loop(a, b, h_min, steps):
    """The per-span cut: each side the steps below its length, then it."""
    if b - a <= h_min:
        return np.array([a, b])
    lengths = (-a, b) if a < 0.0 < b else (b - a,)
    sides = [np.append(steps[:np.searchsorted(steps, x)], x) for x in lengths]
    if a < 0.0 < b:
        return np.concatenate([-sides[0][:0:-1], sides[1]])
    return a + sides[0] if a >= 0.0 else b - sides[0][::-1]


def test_graded_spans_equal_per_span_loop():
    rng = np.random.default_rng(5)
    h_min = 1e-4
    steps = geometric_edges(0.0, 3.5, h_min, 1.5)[:-1]
    # spans of every kind, then spans on either side of 0 with ends drawn
    # apart, where the far edge a + (b - a) or b - (b - a) rounds off the
    # end now and then
    a = rng.uniform(-1.0, 1.0, 400)
    b = a + 10.0 ** rng.uniform(-6.0, 0.3, 400)
    left, right = -rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 1.0, 400)
    a = np.concatenate([a, left, right, [0.0, -0.0, -0.5, 0.2, -1e-5, 0.3]])
    b = np.concatenate([b, left * rng.uniform(0.0, 1.0, 400),
                        rng.uniform(1.0, 3.0, 400),
                        [1.0, 0.5, 0.0, 0.2 + 5e-5, 1e-5, 0.3 + h_min]])
    edges, n = kernels._graded_spans(a, b, h_min, steps)
    rows = np.split(edges, np.cumsum(n)[:-1])
    assert len(rows) == a.size
    for ai, bi, got in zip(a, b, rows):
        _assert_same_bits(got, _graded_span_loop(ai, bi, h_min, steps))


# Recorded before support-only evaluation: numpy 2.4.6 on x86-64 with
# AVX-512, where its SIMD pow and exp set the last bits.  Another numpy
# build may round those differently, so there the values are compared at
# 1e-12 relative and the digests, which only pin bits, are not compared.
PINNED_KERNELS = {
    2: ((-27.260797583708264, 35.29972759649052, 35.282289359717126),
        (4.894162745277887e-08, 7.956206832331851e-09,
         3.9290130314906155e-08)),
    3: ((-16.277421552068635, 21.063870250843163, 20.91992793530381),
        (4.983174876009741e-08, 9.608986858275173e-09,
         4.0031075668810436e-08)),
}
PINNED_DIGESTS = {
    "mollify_kernel": "01ceedfbbb2b0194139c96d09c7300c2"
                      "7e4331ce425cefe37bf940c7caea51c1",
    "kq_kernel": "75b0d05e54830728c622ca98215dc9ee"
                 "d991433b4fe189b8153a6615f1c090a5",
}
PINNED_CONSTANTS = {
    2: {"C1": 1.6826516067203716, "Q1_0": 0.023973198961026253,
        "Q2_0": 0.024977868131988427, "C2": 0.027299377860069234,
        "I00": 0.013649688930034617, "I01": 0.00010343521203966308,
        "I11": 2.0275770236318328e-05, "I02": 0.0002588188881360319,
        "I12": -3.059063004604205e-06, "I22": 7.423922252904042e-06},
    3: {"C1": 1.8257553964854318, "Q1_0": 0.01640550531984081,
        "Q2_0": 0.015157635988993926, "C2": 0.00769811132870406,
        "I00": 0.00384905566435203, "I01": 4.9689163812622705e-05,
        "I11": 1.6546691821471015e-06, "I02": 7.082075224412837e-05,
        "I12": 4.1633563949098195e-07, "I22": 1.885622843087495e-06},
}


def _recording_build() -> bool:
    if np.__version__ != "2.4.6" or platform.machine() != "x86_64":
        return False
    from numpy._core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


def _assert_pinned(got, want, rel=0.0):
    if not _recording_build():
        rel = max(rel, 1e-12)
    assert got == (pytest.approx(want, rel=rel, abs=0.0) if rel else want)


@pytest.mark.parametrize("d", [2, 3])
def test_truncated_kernel_pinned_bits(d):
    K = build_truncated_kernel(d)
    coeffs, residuals = PINNED_KERNELS[d]
    _assert_pinned(K.bump_coeffs, coeffs)
    _assert_pinned(K.moment_residuals, residuals)


def test_mollified_kernels_pinned_digests():
    if not _recording_build():
        pytest.skip("the digests pin the bits of the recording numpy build")
    # kq_kernel ends in a BLAS matrix product, whose threaded blocking sets
    # the last bits of its result; the digests were recorded with one BLAS
    # thread, so they are taken in a child process that has one
    code = (
        "import hashlib, numpy as np\n"
        "from fhnspde.kernels import (build_truncated_kernel, kq_kernel,\n"
        "                             matrix_weight, mollify_kernel)\n"
        "keps = mollify_kernel(build_truncated_kernel(3), 2.0 ** -4)\n"
        "kq = kq_kernel(keps, matrix_weight([1.0], [[-1.0]], 0, 0.5), 0.5)\n"
        "for v in (keps.vals, kq.vals):\n"
        "    print(v.shape[0], v.shape[1], hashlib.sha256(\n"
        "        np.ascontiguousarray(v).tobytes()).hexdigest())\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [
        "112", "64", PINNED_DIGESTS["mollify_kernel"],
        "200", "64", PINNED_DIGESTS["kq_kernel"]]


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_constants_pinned(d):
    # C1 is exact; what comes out of correlate may move by 1e-15 relative,
    # as its matmuls skip output times that meet no support
    c = kernel_constants(d, 2.0 ** -4, full=True)
    want = PINNED_CONSTANTS[d]
    _assert_pinned(c.C1, want["C1"])
    got = {"Q1_0": c.Q1_0, "Q2_0": c.Q2_0, "C2": c.C2}
    got.update({f"I{i}{j}": v for (i, j), v in c.I.items()})
    for name, value in got.items():
        _assert_pinned(value, want[name], rel=1e-15)

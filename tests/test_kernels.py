"""Closed-form oracles and invariants for the numerical kernel pipeline."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc, exp1

from fhnspde import kernels
from fhnspde.kernels import (
    BoundCheck,
    CounterTerms,
    Grid1D,
    KernelConstants,
    KernelConstructionError,
    MollifiedKernel,
    MollifierSpec,
    assemble_C,
    build_truncated_kernel,
    correlate,
    g_eps_squared,
    geometric_edges,
    heat_kernel,
    heat_l2,
    kernel_constants,
    kernel_moments,
    kq_exact,
    kq_kernel,
    matrix_weight,
    mollify_kernel,
    ou_weight,
    panel_grid,
    radial_convolve,
    radial_integral,
    smooth_taper,
    sphere_area,
    verify_appendix_bounds,
)


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
        assert g.integrate(g.nodes ** p) == pytest.approx(1 / (p + 1), rel=1e-13)


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
    assert val == pytest.approx(heat_l2(t, d), rel=1e-9)


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


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["bump", "gauss"])
def test_mollifier_mass(d, kind):
    spec = MollifierSpec(d, kind=kind)
    tg = panel_grid(np.linspace(-spec.t_halfwidth, spec.t_halfwidth, 9), 10)
    assert tg.integrate(spec.t_profile(tg.nodes)) == pytest.approx(1.0,
                                                                   abs=1e-10)
    rg = panel_grid(np.linspace(0.0, spec.x_radius, 9), 10)
    assert radial_integral(spec.x_profile(rg.nodes), rg, d) == \
        pytest.approx(1.0, abs=1e-10)


def test_mollifier_scaled_mass():
    spec = MollifierSpec(3)
    eps = 0.1
    tg = panel_grid(np.linspace(-spec.t_halfwidth * eps ** 2,
                                spec.t_halfwidth * eps ** 2, 9), 10)
    assert tg.integrate(spec.scaled_t(tg.nodes, eps)) == pytest.approx(
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
    assert K.remainder(0.1, 0.2) == pytest.approx(0.0, abs=1e-15)
    # ... and carries the full heat kernel outside the support
    t, r = 0.6, 0.8
    assert K(t, r) == 0.0
    assert K.remainder(t, r) == pytest.approx(heat_kernel(t, r, 3))


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


def test_truncated_kernel_zeta_zero():
    K = build_truncated_kernel(2, zeta=0)
    assert len(K.bump_coeffs) == 1
    assert abs(K.moment_residuals[0]) < 1e-6


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
    monos = kernels._moment_monomials(2)

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


@pytest.mark.parametrize("d, zeta", [(2, 0), (3, 2)])
def test_kernel_moments_match_per_row_loop(d, zeta):
    # the verification pass against the loop, on kernel_moments' own grid
    K = build_truncated_kernel(d, zeta=zeta)
    monos = kernels._moment_monomials(zeta)
    assert K.moment_residuals == _moments_one_function(
        K, d, monos, order=9, t_min=1e-10, ratio=1.5, n_core=8)


def test_truncated_kernel_rejects_bad_zeta():
    with pytest.raises(ValueError):
        build_truncated_kernel(3, zeta=3)


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
    return keps, kq_kernel(keps, ou_weight(1.0, 1.0, 0.5), 0.5, level=-1)


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


def test_correlate_memory_does_not_grow_with_rows_of_A():
    keps, _ = _keps_kq(3)

    def resampled(n_panels):
        tg = panel_grid(np.linspace(*keps.t_support, n_panels + 1), 5)
        vals = keps(tg.nodes[:, None], keps.r_grid.nodes[None, :])
        return MollifiedKernel(d=3, t_grid=tg, r_grid=keps.r_grid, vals=vals,
                               t_support=keps.t_support,
                               r_support=keps.r_support)

    t_out = np.linspace(0.0, 1.0, 30)
    rho = np.r_[0.0, keps.r_grid.nodes]

    def peak(A):
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
    p_small, p_large = peak(small), peak(large)
    assert p_large < 1.1 * p_small, (p_small, p_large)


def test_kernel_constants_origin_values_match_origin_correlation():
    # Q1(0), Q2(0) are read off the grid passes; an origin-only call agrees
    c = kernel_constants(3, 0.25, level=-1)
    keps, kq = _keps_kq(3)
    origin = (np.array([0.0]), np.array([0.0]))
    [q1] = correlate(keps, (kq,), *origin)
    [q2] = correlate(kq, (kq,), *origin)
    assert c.Q1_0 == pytest.approx(float(q1[0, 0]), rel=1e-13)
    assert c.Q2_0 == pytest.approx(float(q2[0, 0]), rel=1e-13)


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


def test_ou_weight_matches_matrix_weight_scalar():
    T = 0.5
    q1 = ou_weight(1.7, 2.5, T)
    q2 = matrix_weight(np.array([2.5]), np.array([[-1.7]]), 0, T)
    s = np.linspace(0.0, 1.0, 41)
    assert np.allclose(q1(s), q2(s), rtol=1e-12, atol=1e-12)


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
    Q = ou_weight(1.0, 1.0, T)
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
# (level 0 spans several blocks of rows in d = 3)
_PINNED_CONSTANTS = {
    (3, 0): {
        "C1": 0.6380342602066432, "C2": 0.003827970704200851,
        "Q1_0": 0.012564668823299669, "Q2_0": 0.011929260086360936,
        (0, 0): 0.0019139853521004254, (0, 1): 2.9285828757820405e-05,
        (1, 1): 1.3947738477530424e-06, (0, 2): 4.959660320233209e-05,
        (1, 2): 2.80836192147854e-07, (2, 2): 1.5715797350942853e-06,
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
    consts = KernelConstants(d=3, eps=0.1, C1=2.0, Q1_0=0.1, Q2_0=0.1,
                             C2=0.01)
    ct = assemble_C(beta1=1.5, gamma1=3.0, gamma2=(0.6,), consts=consts)
    C_eps = 3 * 2.0 + 9 * 3.0 * 0.01
    assert ct.C_eps == pytest.approx(C_eps, rel=1e-14)
    assert ct.C0 == pytest.approx(-1.5 / 3 * C_eps, rel=1e-14)
    assert ct.C1_sys == pytest.approx(-3.0 * C_eps, rel=1e-14)
    assert ct.C2_sys[0] == pytest.approx(-0.6 / 3 * C_eps, rel=1e-14)


def test_assemble_counterterms_d2_has_no_C2_part():
    consts = KernelConstants(d=2, eps=0.1, C1=1.2, Q1_0=0.0, Q2_0=0.0)
    ct = assemble_C(1.0, 2.0, (1.0, 0.5), consts)
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
    checks = verify_appendix_bounds(3, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
    assert len(checks) == 4
    for c in checks:
        assert isinstance(c, BoundCheck)
        assert len(c.ratios) == 3
        assert c.passed, f"{c.name}: trend {c.trend:+.3f}"


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

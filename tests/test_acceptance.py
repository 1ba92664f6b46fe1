"""Acceptance gate: every advertised guarantee at its stated tolerance.

One check per test, in the order of the README checklist; each records a
single PASS/FAIL line that the terminal summary prints at the end of the
run.  The symbolic checks are exact and time-boxed; the numerical ones
carry the tolerances they are quoted with.
"""
import math
import time
from fractions import Fraction

import numpy as np
import sympy

from conftest import record_acceptance
from fhnspde.hopf import coproduct
from fhnspde.kernels import (
    build_truncated_kernel,
    kernel_constants,
    mollify_kernel,
    verify_appendix_bounds,
)
from fhnspde.noise import Lattice, sample_white_noise
from fhnspde.renorm import (
    Combo,
    CubicPolynomial,
    RenormMap,
    renormalized_nonlinearity,
)
from fhnspde.solver import (
    QSpec,
    RunConfig,
    SystemSpec,
    counterterms_for,
    epsilon_sweep,
    run,
)
from fhnspde.symbols import (
    ONE,
    Homogeneity,
    homogeneity,
    integral,
    product,
    x_power,
)

from reference import (
    common_trees,
    g_eps_squared,
    kernel_convolution,
    kernel_slice_transforms,
    lattice_chi_constant,
    lattice_covariance,
    wick_cube,
    wick_square,
)
from test_hopf import FROZEN_D3
from test_symbols import TABLE

H = Homogeneity
F = Fraction
C1, C1p, C1pp, C2 = sympy.symbols("C1 C1p C1pp C2")
U = sympy.Symbol("u")


def _check(tag: str, ok: bool, detail: str) -> None:
    record_acceptance(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _row_symbol(name: str, d: int):
    ct = common_trees(d)
    if name == "X1":
        return x_power(1, d)
    if name == "RSV*X1":
        return product([ct["RSV"], x_power(1, d)])
    return ct[name]


# rows absent from the negative-sector table: unit, coordinate, product row
POLY_ROWS = {
    "One": {3: (0, 0), 2: (0, 0)},
    "X1": {3: (1, 0), 2: (1, 0)},
    "RSV*X1": {3: (0, -2), 2: (1, -2)},
}


def test_accept_01_homogeneity_and_coproduct_table():
    t0 = time.perf_counter()
    rows = {**{k: v for k, v in TABLE.items()}, **POLY_ROWS}
    assert set(FROZEN_D3) == set(rows)
    bad = []
    for name, by_d in rows.items():
        for d in (2, 3):
            r, s = by_d[d]
            if homogeneity(_row_symbol(name, d), d) != H(F(r), F(s)):
                bad.append(f"{name}/d{d}")
    for name in FROZEN_D3:
        if coproduct(_row_symbol(name, 3), 3) != FROZEN_D3[name]:
            bad.append(f"D({name})")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _check("01 homogeneity + coproduct table",
           ok, f"16 rows x (d=2, d=3) + full coproduct column exact, "
               f"{elapsed:.2f} s" + (f"; mismatches {bad}" if bad else ""))


def test_accept_02_map_identities():
    ct = common_trees(3)
    pair = product([ct["RSI"], ct["RSI"]])
    comp = product([integral(pair), pair])
    t0 = time.perf_counter()
    M = RenormMap({pair: C1, comp: C2}, 3)
    want = {
        "RSI": Combo({ct["RSI"]: 1}),
        "RSV": Combo({ct["RSV"]: 1, ONE: -C1}),
        "RSW": Combo({ct["RSW"]: 1, ct["RSI"]: -3 * C1}),
        "RSWV": Combo({ct["RSWV"]: 1, ONE: -C2, ct["RSY"]: -C1}),
        "RSWW": Combo({ct["RSWW"]: 1, ct["RSI"]: -3 * C2,
                       ct["RSWI"]: -3 * C1, ct["RSIW"]: -C1,
                       ct["RSII"]: 3 * C1 ** 2}),
    }
    bad = [name for name, w in want.items() if M.apply(ct[name]) != w]
    Mfull = RenormMap({pair: C1, comp: C2, ct["RSVo"]: C1p,
                       ct["RSVoo"]: C1pp}, 3)
    if Mfull.apply(ct["RSWoo"]) != Combo(
            {ct["RSWoo"]: 1, ct["RSI"]: -C1pp, ct["RSoI"]: -2 * C1p}):
        bad.append("RSWoo")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _check("02 renormalisation-map identities",
           ok, f"6 identities exact, {elapsed:.2f} s"
               + (f"; failed {bad}" if bad else ""))


def test_accept_03_renormalised_equation_identities():
    V1 = sympy.Symbol("v1")
    g1, g2, g3, g4, b1, b2, b3 = sympy.symbols("g1 g2 g3 g4 b1 b2 b3")
    t0 = time.perf_counter()
    bad = []

    Ra = renormalized_nonlinearity(CubicPolynomial("u - u^3 - v", 1), 3)
    gained = sympy.expand(Ra.Fhat - CubicPolynomial("u - u^3 - v", 1).expr)
    if not (Ra.c0 == 0 and Ra.c2 == (0,)
            and sympy.expand(gained - (3 * C1 - 9 * C2) * U) == 0):
        bad.append("standard")

    Rb = renormalized_nonlinearity(CubicPolynomial(
        g1 * U ** 3 + b1 * U ** 2 + g3 * U * V1 ** 2 + g4 * V1 ** 3
        + b2 * U * V1 + b3 * V1 ** 2, 1), 3)
    if not (Rb.factorized and Rb.proportional
            and sympy.expand(Rb.c0 - b1 * Rb.C_eps / 3) == 0
            and sympy.expand(Rb.c1 - g1 * Rb.C_eps) == 0
            and sympy.expand(Rb.C_eps - (3 * C1 + 9 * g1 * C2)) == 0):
        bad.append("cubic-d3")

    Rc = renormalized_nonlinearity(CubicPolynomial(
        g1 * U ** 3 + g2 * U ** 2 * V1 + b1 * U ** 2 + b2 * U * V1, 1), 2)
    if not (Rc.factorized and Rc.proportional
            and sympy.expand(Rc.c2[0] - g2 * C1) == 0
            and sympy.expand(Rc.c0 - b1 * Rc.C_eps / 3) == 0
            and sympy.expand(Rc.c1 - g1 * Rc.C_eps) == 0
            and sympy.expand(Rc.C_eps - 3 * C1) == 0):
        bad.append("cubic-d2")

    Rd = renormalized_nonlinearity(CubicPolynomial(
        g1 * U ** 3 + g2 * U ** 2 * V1, 1), 3)
    if not (Rd.obstruction and not Rd.factorized):
        bad.append("obstruction-d3")

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _check("03 renormalised-equation identities",
           ok, f"standard / cubic-d3 / cubic-d2 / obstruction exact, "
               f"{elapsed:.2f} s" + (f"; failed {bad}" if bad else ""))


def test_accept_04_log_divergence_slope_d2():
    eps = np.array([2.0 ** -k for k in range(4, 9)])
    vals = [g_eps_squared(2, e) for e in eps]
    slope = float(np.polyfit(np.log(1 / eps), vals, 1)[0])
    target = 1 / (4 * math.pi)
    rel = abs(slope - target) / target
    _check("04 d=2 squared-mass log slope",
           rel < 0.10,
           f"slope {slope:.6f} vs 1/(4 pi) = {target:.6f} "
           f"(rel {rel:.2%}, tol 10%)")


def test_accept_05_divergence_rates_d3():
    K = build_truncated_kernel(3)
    eps_c1 = {k: 2.0 ** -k * mollify_kernel(K, 2.0 ** -k).squared_integral()
              for k in range(4, 10)}
    # last decade: every scale within a factor ten of the finest
    decade = [v for k, v in eps_c1.items() if 2.0 ** -k <= 10 * 2.0 ** -9]
    spread = max(decade) / min(decade) - 1

    recs = {k: kernel_constants(3, 2.0 ** -k, kernel=K, full=True)
            for k in range(4, 8)}
    ln = np.log([2.0 ** k for k in range(4, 8)])
    i00 = np.array([recs[k].I[(0, 0)] for k in range(4, 8)])
    resid = i00 - np.polyval(np.polyfit(ln, i00, 1), ln)
    resid_frac = float(np.max(np.abs(resid)) / np.ptp(i00))

    worst_ratio = max(
        max(abs(recs[k].I[key]) for k in recs)
        / min(abs(recs[k].I[key]) for k in recs)
        for key in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))

    ok = spread < 0.15 and resid_frac < 0.05 and worst_ratio < 2.0
    _check("05 d=3 divergence rates",
           ok, f"eps*C1 decade spread {spread:.1%} (tol 15%), "
               f"I00 affine residual {resid_frac:.1%} (tol 5%), "
               f"bounded-integral max/min {worst_ratio:.3f} (tol 2)")


def test_accept_06_kernel_stability_bound():
    checks = verify_appendix_bounds(3, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                    theta=0.25, trend_tol=0.1)
    worst = max(c.trend for c in checks)
    ok = len(checks) == 4 and all(c.passed for c in checks)
    _check("06 kernel estimate certificates",
           ok, f"4 ratio tables, worst log-log trend {worst:+.3f} "
               f"(tol +0.100)")


def test_accept_07_noise_calibration():
    parts = []
    ok = True

    lat = Lattice(d=2, n_space=64, n_time=256, t_end=1.0)
    xi = sample_white_noise(lat, 2024)
    target = 1.0 / lat.cell_volume
    rel = abs(float(np.var(xi.values)) - target) / target
    ok &= xi.values.size >= 1_000_000 and rel < 0.01
    parts.append(f"cell variance rel {rel:.2%} over {xi.values.size} cells")

    keps = mollify_kernel(build_truncated_kernel(2), 0.25)
    lat2 = Lattice(d=2, n_space=32, n_time=416, t_end=416 / 256.0)
    tr = kernel_slice_transforms(keps, lat2)
    i_star = 384
    lags = {"0": (0, None), "x2": (0, (2, 0)), "x4": (0, (4, 0)),
            "xy4": (0, (4, 4)), "t8": (8, None)}
    exact = {k: lattice_covariance(keps, lat2, lt, lx, tr)
             for k, (lt, lx) in lags.items()}
    est = {k: [] for k in lags}
    for s in range(200):
        w = sample_white_noise(lat2, 500 + s)
        chi = kernel_convolution(w, keps, [i_star, i_star + 8], tr)
        est["0"].append(float(np.mean(chi[0] ** 2)))
        est["x2"].append(float(np.mean(chi[0] * np.roll(chi[0], -2, 0))))
        est["x4"].append(float(np.mean(chi[0] * np.roll(chi[0], -4, 0))))
        est["xy4"].append(float(np.mean(
            chi[0] * np.roll(np.roll(chi[0], -4, 0), -4, 1))))
        est["t8"].append(float(np.mean(chi[0] * chi[1])))
    worst_dev = 0.0
    for k in lags:
        se = float(np.std(est[k], ddof=1)) / math.sqrt(len(est[k]))
        worst_dev = max(worst_dev, abs(float(np.mean(est[k])) - exact[k]) / se)
    ok &= worst_dev < 3.0
    parts.append(f"covariance at 5 lags, 200 members, worst {worst_dev:.2f} SE")

    keps3 = mollify_kernel(build_truncated_kernel(2), 0.3)
    lat3 = Lattice(d=2, n_space=16, n_time=200, t_end=200 / 128.0)
    tr3 = kernel_slice_transforms(keps3, lat3)
    c_lat = lattice_chi_constant(keps3, lat3, tr3)
    sq, cb = [], []
    for s in range(40):
        w = sample_white_noise(lat3, 9200 + s)
        chi = kernel_convolution(w, keps3, [150, 170, 190], tr3)
        pts = chi[:, ::5, ::5]
        sq.append(float(np.mean(wick_square(pts, c_lat))))
        cb.append(float(np.mean(wick_cube(pts, c_lat))))
    wick_dev = 0.0
    for vals in (sq, cb):
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        wick_dev = max(wick_dev, abs(float(np.mean(vals))) / se)
    ok &= wick_dev < 3.0
    parts.append(f"Wick means worst {wick_dev:.2f} SE")

    _check("07 noise calibration", ok, "; ".join(parts) + " (tol 1% / 3 SE)")


def _zero_F(n=1):
    return CubicPolynomial(sympy.Integer(0), n)


def test_accept_08_solver_oracles():
    from scipy.linalg import expm

    spec = SystemSpec(d=2, F=_zero_F(), Q=QSpec(A1=(1.0,), A2=((-1.0,),)))
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.1, eps=0.25, seed=5,
                    noise_amplitude=0.0,
                    u0=lambda x, y: np.cos(2 * np.pi * x),
                    v0=lambda x, y: 0.0 * x, snapshot_times=(0.1,))
    xs = np.arange(32) / 32
    exact = (math.exp(-4 * math.pi ** 2 * 0.1)
             * np.cos(2 * np.pi * xs)[:, None] * np.ones((1, 32)))
    heat_err = float(np.max(np.abs(
        run(cfg, spec).snapshots[0.1]["u"] - exact)))

    Q = QSpec(A1=(0.4, -0.3), A2=((-2.0, 1.5), (0.5, -0.1)))
    cfg_v = RunConfig(n_space=16, dt=1e-3, t_end=0.1, eps=0.25, seed=5,
                      noise_amplitude=0.0, u0=lambda x, y: 0.0 * x,
                      v0=lambda x, y: np.stack([1.0 + 0 * x, -0.5 + 0 * x]),
                      snapshot_times=(0.1,))
    vT = run(cfg_v, SystemSpec(d=2, F=_zero_F(2), Q=Q)).snapshots[0.1]["v"]
    ode_err = float(np.max(np.abs(
        vT[:, 0, 0] - expm(0.1 * np.array(Q.A2)) @ np.array([1.0, -0.5]))))

    Ffhn = CubicPolynomial("u - u^3 - v", 1)
    Qs = QSpec(A1=(1.0,), A2=((-1.0,),))
    cfg_d = RunConfig(n_space=32, dt=1e-3, t_end=0.05, eps=0.25, seed=21,
                      snapshot_times=(0.05,))
    ud = run(cfg_d, SystemSpec(d=2, F=Ffhn, Q=Qs,
                               formulation="direct")).snapshots[0.05]["u"]
    ur = run(cfg_d, SystemSpec(d=2, F=Ffhn, Q=Qs,
                               formulation="remainder")).snapshots[0.05]["u"]
    split_err = float(np.max(np.abs(ud - ur)))

    ok = heat_err < 1e-8 and ode_err < 1e-10 and split_err < 1e-6
    _check("08 integrator oracles",
           ok, f"heat decay {heat_err:.2e} (tol 1e-8), "
               f"slow-channel ODE {ode_err:.2e} (tol 1e-10), "
               f"direct-vs-remainder {split_err:.2e} (tol 1e-6)")


def test_accept_09_common_noise_convergence_d2():
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1),
                      Q=QSpec(A1=(1.0,), A2=((-1.0,),)))
    cfg = RunConfig(n_space=128, dt=1e-4, t_end=0.1, eps=0.25, seed=4)
    rep = epsilon_sweep(spec, cfg, [2.0 ** -2, 2.0 ** -3, 2.0 ** -4],
                        t_star=0.1)
    d_ren = [l2 for _, l2 in rep.D["renormalised"]["u"]]
    d_un = [l2 for _, l2 in rep.D["unrenormalised"]["u"]]
    dec = d_ren[0] > d_ren[1] > d_ren[2]
    nondec = d_un[0] <= d_un[1] <= d_un[2]

    q_l1 = rep.contraction["q_l1"]
    bound = 1.1 * max(1.0, q_l1)
    worst = max(p["max_ratio"] for p in rep.contraction["pairs"].values())
    contract = worst <= bound

    ok = dec and nondec and contract
    _check("09 d=2 common-noise convergence",
           ok, f"renormalised D {d_ren[0]:.4f} > {d_ren[1]:.4f} > "
               f"{d_ren[2]:.4f} ({'ok' if dec else 'violated'}); "
               f"unrenormalised D {d_un[0]:.4f} <= {d_un[1]:.4f} <= "
               f"{d_un[2]:.4f} ({'ok' if nondec else 'violated'}); "
               f"slow-channel ratio {worst:.3f} <= {bound:.3f} with "
               f"|Q| = {q_l1:.3f}")


def test_accept_10_d3_smoke():
    Ffhn = CubicPolynomial("u - u^3 - v", 1)
    cts = counterterms_for(Ffhn, 3, 0.25)
    spec = SystemSpec(d=3, F=Ffhn, Q=QSpec(A1=(1.0,), A2=((-1.0,),)),
                      renorm=cts)
    cfg = RunConfig(n_space=32, dt=1e-4, t_end=0.05, eps=0.25, seed=1,
                    cutoff=1e3)
    res = run(cfg, spec)
    finite = all(np.isfinite(res.norms[k]).all() for k in res.norms)
    ok = res.termination == "completed" and finite
    _check("10 d=3 renormalised smoke",
           ok, f"32^3 run over [0, 0.05] {res.termination}, "
               f"fields finite = {finite}, final sup |u| = "
               f"{res.norms['sup_u'][-1]:.3f}, C(eps) = {cts.C_eps:.4f}")

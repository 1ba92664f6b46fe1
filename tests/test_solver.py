"""Integrator invariants: exact linear parts, decomposition, determinism."""

import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fhnspde import kernels, noise
from fhnspde.kernels import (
    CounterTerms,
    MollifierSpec,
    assemble_C,
    build_truncated_kernel,
    kernel_constants,
    mollify_kernel,
)
from fhnspde.noise import (
    Lattice,
    _temporal_weights,
    mollifier_transform,
    mollify_noise,
    sample_white_noise,
)
from fhnspde import solver
from fhnspde.renorm import CubicPolynomial
from fhnspde.solver import (
    QSpec,
    RunConfig,
    SystemSpec,
    Stepper,
    _FIR_BLOCK,
    _FIRMollifier,
    _noise_forcing,
    counterterms_for,
    epsilon_sweep,
    initial_data,
    phi_series,
    run,
)


U_SYM = sympy.Symbol("u")


def _zero_F(n=1):
    return CubicPolynomial(sympy.Integer(0), n)


def _scalar_Q():
    return QSpec(A1=(1.0,), A2=((-1.0,),))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_phi_series_matches_closed_form():
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    dt = 0.05
    ref = np.linalg.solve(A, expm(dt * A) - np.eye(2))
    assert np.max(np.abs(phi_series(dt, A) - ref)) < 1e-14


def test_stepper_expA_matches_expm():
    # e^{dt A2} as I + A2 Phi(dt, A2), from the series the slow update
    # already needs
    Q = QSpec(A1=(0.4, -0.3), A2=((-2.0, 1.5), (0.5, -0.1)))
    st = Stepper(SystemSpec(d=2, F=_zero_F(2), Q=Q), 8, 1e-3)
    ref = expm(1e-3 * np.array(Q.A2))
    assert np.max(np.abs(st.expA - ref)) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_step_v_matches_tensordot(n):
    # the channel-by-channel update is the matrix product it replaces:
    # bit for bit with one channel, to rounding with two
    Q = _scalar_Q() if n == 1 else QSpec(A1=(0.4, -0.3),
                                         A2=((-2.0, 1.5), (0.5, -0.1)))
    st = Stepper(SystemSpec(d=2, F=_zero_F(n), Q=Q), 64, 1e-3)
    rng = np.random.default_rng(n)
    v, u = rng.normal(size=(n, 64, 64)), rng.normal(size=(64, 64))
    want = np.tensordot(st.expA, v, axes=(1, 0)) \
        + st.phiA1.reshape(-1, 1, 1) * u
    got = st.step_v(v, u)
    if n == 1:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-15 * np.max(np.abs(want))


def test_phi_series_singular_matrix():
    # nilpotent block: Phi = dt I + dt^2 A / 2 exactly
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    dt = 0.1
    ref = dt * np.eye(2) + dt ** 2 * A / 2.0
    assert np.max(np.abs(phi_series(dt, A) - ref)) < 1e-16
    assert phi_series(dt, np.zeros((1, 1)))[0, 0] == dt


def test_qspec_shape_validation():
    with pytest.raises(ValueError):
        QSpec(A1=(1.0, 2.0), A2=((-1.0,),))


def test_qspec_l1_norm_scalar_ou():
    from scipy.integrate import quad
    q = _scalar_Q()
    w = q.weight(0)
    ref, _ = quad(lambda s: abs(float(w(np.array([s]))[0])), 0.0, 2 * q.T,
                  limit=200)
    assert abs(q.l1_norm() - ref) < 1e-6


def test_qspec_l1_norm_defective_coupling():
    # A2 is a Jordan block: Q_0(s) = (1 + s/2) e^-s and Q_1(s) = e^-s / 2,
    # tapered; Q_0 has the larger mass
    q = QSpec(A1=(1.0, 0.5), A2=((-1.0, 1.0), (0.0, -1.0)))
    s = np.linspace(0.0, 2 * q.T, 200001)
    f = (1.0 + s / 2) * np.exp(-s) * kernels.smooth_taper(s, q.T)
    ref = float(np.sum((f[1:] + f[:-1]) / 2) * (s[1] - s[0]))
    assert q.l1_norm() == pytest.approx(ref, rel=1e-9)
    assert round(q.l1_norm(), 5) == 0.61247


def test_system_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        SystemSpec(d=2, F=_zero_F(2), Q=_scalar_Q())


def test_system_rejects_quadratic_slow_coupling_in_3d_with_renorm():
    F = CubicPolynomial(sympy.sympify("u - u**3 + u**2*v1"), 1)
    consts = counterterms_for(CubicPolynomial("u - u^3 - v", 1), 2, 0.25)
    with pytest.raises(ValueError):
        SystemSpec(d=3, F=F, Q=_scalar_Q(), renorm=consts)
    # without counterterms the same system is accepted
    SystemSpec(d=3, F=F, Q=_scalar_Q())


def test_config_validation():
    good = RunConfig(n_space=32, dt=1e-3, t_end=0.01, eps=0.25, seed=0)
    good.validate(2, 1)
    with pytest.raises(ValueError):
        RunConfig(n_space=32, dt=1e-3, t_end=0.01, eps=0.05,
                  seed=0).validate(2, 1)
    with pytest.raises(ValueError):
        RunConfig(n_space=32, dt=1e-3, t_end=0.01, eps=0.25, seed=0,
                  eta=-0.7).validate(2, 1)
    with pytest.raises(ValueError):
        RunConfig(n_space=32, dt=1e-3, t_end=0.01, eps=0.25, seed=0,
                  gamma=0.9).validate(2, 1)
    with pytest.raises(ValueError):
        SystemSpec(d=2, F=_zero_F(), Q=_scalar_Q(), formulation="magic")
    # the Philox keys seed, seed + 1 and seed + 1 + 7919 i (one per slow
    # channel) must fit in uint64; snapshot times must lie in [0, t_end]
    top = 2 ** 64 - 2 - 7919   # the largest seed with one slow channel
    replace(good, seed=top, snapshot_times=(0.0, 0.01)).validate(2, 1)
    for bad, n_v in (({"seed": -1}, 1), ({"seed": top + 1}, 1),
                     ({"seed": top}, 2),
                     ({"snapshot_times": (0.005, -0.1)}, 1),
                     ({"snapshot_times": (0.5,)}, 1),
                     # one step at dt = 1e-3: one snapshot would be lost
                     ({"snapshot_times": (0.005, 0.0052)}, 1),
                     ({"snapshot_times": (math.nan,)}, 1),
                     # Lattice's rule, checked before the eps guard divides
                     ({"n_space": 1}, 1), ({"n_space": 0}, 1),
                     ({"n_space": -4}, 1)):
        with pytest.raises(ValueError, match="seed|snapshot|n_space"):
            replace(good, **bad).validate(2, n_v)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_initial_data_deterministic_and_shaped():
    kw = dict(eta=RunConfig.eta, gamma=RunConfig.gamma, n_v=2, u0=None,
              v0=None)
    u1, v1 = initial_data(2, 32, 123, **kw)
    u2, v2 = initial_data(2, 32, 123, **kw)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert u1.shape == (32, 32) and v1.shape == (2, 32, 32)
    u3, _ = initial_data(2, 32, 124, **kw)
    assert not np.array_equal(u1, u3)


def test_initial_data_calls_v0_once():
    # an explicit v0 gives all slow channels from one call
    calls = []

    def v0(x, y):
        calls.append(1)
        return np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * y)])

    _, v = initial_data(2, 8, 1, eta=RunConfig.eta, gamma=RunConfig.gamma,
                        n_v=2, u0=None, v0=v0)
    assert len(calls) == 1
    xs = np.arange(8) / 8
    assert np.array_equal(v, v0(*np.meshgrid(xs, xs, indexing="ij")))


def test_initial_data_spectrum_slope():
    # shell-averaged power over 100 seeds: slope of log E|c_k|^2 against
    # log(1+|k|) within 15% of -(d + 2 eta) over a decade of |k|
    d, N, eta = 2, 64, -0.25
    axes = [np.fft.fftfreq(N, d=1.0 / N), np.fft.rfftfreq(N, d=1.0 / N)]
    mag = np.sqrt(sum(np.square(a) for a in np.meshgrid(*axes, indexing="ij")))
    # the lattice the series is drawn on has these wavenumbers
    assert np.array_equal(
        Lattice(d=d, n_space=N, n_time=1, t_end=1.0).k_magnitudes(), mag)
    acc = np.zeros_like(mag)
    n_seeds = 100
    for s in range(n_seeds):
        u, _ = initial_data(d, N, 5000 + s, eta=eta, gamma=RunConfig.gamma,
                            n_v=1, u0=None, v0=None)
        acc += np.abs(np.fft.rfftn(u)) ** 2 / N ** d
    acc /= n_seeds
    sel = (mag >= 2.0) & (mag <= 20.0)
    x = np.log(1.0 + mag[sel])
    y = np.log(acc[sel])
    slope = np.polyfit(x, y, 1)[0]
    target = -(d + 2 * eta)
    assert abs(slope - target) < 0.15 * abs(target)


# ---------------------------------------------------------------------------
# exact linear behaviour
# ---------------------------------------------------------------------------

def test_heat_eigenfunction_decay():
    spec = SystemSpec(d=2, F=_zero_F(), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.1, eps=0.25, seed=5,
                    noise_amplitude=0.0,
                    u0=lambda x, y: np.cos(2 * np.pi * x),
                    v0=lambda x, y: 0.0 * x,
                    snapshot_times=(0.1,))
    res = run(cfg, spec)
    assert res.termination == "completed"
    xs = np.arange(32) / 32
    exact = (math.exp(-4 * math.pi ** 2 * 0.1)
             * np.cos(2 * np.pi * xs)[:, None] * np.ones((1, 32)))
    assert np.max(np.abs(res.snapshots[0.1]["u"] - exact)) < 1e-8


def test_slow_channel_ode_exact():
    Q = QSpec(A1=(0.4, -0.3), A2=((-2.0, 1.5), (0.5, -0.1)))
    spec = SystemSpec(d=2, F=_zero_F(2), Q=Q)
    cfg = RunConfig(n_space=16, dt=1e-3, t_end=0.1, eps=0.25, seed=5,
                    noise_amplitude=0.0, u0=lambda x, y: 0.0 * x,
                    v0=lambda x, y: np.stack([1.0 + 0 * x, -0.5 + 0 * x]),
                    snapshot_times=(0.1,))
    res = run(cfg, spec)
    vT = res.snapshots[0.1]["v"][:, 0, 0]
    ref = expm(0.1 * np.array(Q.A2)) @ np.array([1.0, -0.5])
    assert np.max(np.abs(vT - ref)) < 1e-10


def test_spatial_mean_conserved_without_forcing():
    spec = SystemSpec(d=2, F=_zero_F(), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.05, eps=0.25, seed=11,
                    noise_amplitude=0.0, snapshot_times=(0.05,))
    res = run(cfg, spec)
    u0, _ = initial_data(2, 32, 12, eta=cfg.eta, gamma=cfg.gamma, n_v=1,
                         u0=None, v0=None)  # run uses seed + 1
    assert abs(np.mean(u0) - np.mean(res.snapshots[0.05]["u"])) < 1e-12


def test_slow_update_first_order_in_dt():
    F = CubicPolynomial("u - u^3 - v", 1)
    spec = SystemSpec(d=2, F=F, Q=_scalar_Q())
    t_end = 0.04
    vals = {}
    for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
        cfg = RunConfig(n_space=16, dt=dt, t_end=t_end, eps=0.25, seed=2,
                        noise_amplitude=0.0,
                        u0=lambda x, y: np.cos(2 * np.pi * x) + 0.3,
                        v0=lambda x, y: 0.1 + 0.0 * x,
                        snapshot_times=(t_end,))
        vals[dt] = run(cfg, spec).snapshots[t_end]["v"]
    ref = vals[2.5e-4]
    errs = [np.max(np.abs(vals[dt] - ref)) for dt in (4e-3, 2e-3, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    # halving dt should roughly halve the error
    assert 1.5 < errs[0] / errs[1] < 2.7
    assert 1.5 < errs[1] / errs[2] < 2.7


# ---------------------------------------------------------------------------
# run mechanics
# ---------------------------------------------------------------------------

def test_cutoff_triggers_immediately_for_tiny_threshold():
    spec = SystemSpec(d=2, F=_zero_F(), Q=_scalar_Q())
    cfg = RunConfig(n_space=16, dt=1e-3, t_end=0.05, eps=0.25, seed=3,
                    cutoff=1e-3)
    res = run(cfg, spec)
    assert res.termination == "cutoff-hit"
    assert res.t_star == 0.0
    # the checksum still covers the whole realisation the run would have used
    n_time = 50 + math.ceil(0.25 * cfg.eps ** 2 / cfg.dt) + 2
    lat = Lattice(d=2, n_space=16, n_time=n_time, t_end=n_time * cfg.dt)
    assert res.manifest["noise_checksum"] \
        == sample_white_noise(lat, cfg.seed).checksum()


@pytest.mark.parametrize("u0, t_star", [
    (lambda x, y: 1e120 + 0 * x, 1e-3),     # u^3 overflows: NaN after a step
    (lambda x, y: np.where(x + y == 0, np.inf, 0.0), 0.0),
    (lambda x, y: np.where(x + y == 0, np.nan, 0.0), 0.0),
    (lambda x, y: np.where(x + y == 0, -np.inf, 0.0), 0.0),
])
def test_nonfinite_field_ends_the_run(u0, t_star):
    # not a cutoff hit: the cutoff is finite but no finite field reaches it
    spec = SystemSpec(d=2, F=CubicPolynomial("u^3", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=16, dt=1e-3, t_end=0.01, eps=0.25, seed=3,
                    cutoff=1e308, u0=u0)
    with np.errstate(all="ignore"):
        res = run(cfg, spec)
    assert res.termination == "nonfinite"
    assert res.t_star == t_star


def koper_system(eps1: float = 0.1, k: float = -10.0) -> SystemSpec:
    """Two slow channels with the singular drift matrix of the Koper family."""
    F = CubicPolynomial(sympy.sympify("3*u + v1 - u**3"), 2)
    Q = QSpec(A1=(eps1 * k, 0.0),
              A2=((-2 * eps1, eps1), (eps1, -eps1)))
    return SystemSpec(d=2, F=F, Q=Q)


def test_koper_system_runs():
    spec = koper_system()
    assert spec.Q.n == 2 and spec.F.n_channels == 2
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.02, eps=0.25, seed=9)
    res = run(cfg, spec)
    assert res.termination == "completed"
    assert np.isfinite(res.norms["sup_u"]).all()
    assert np.isfinite(res.norms["sup_v"]).all()


def test_direct_and_remainder_formulations_agree():
    F = CubicPolynomial("u - u^3 - v", 1)
    Q = _scalar_Q()
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.05, eps=0.25, seed=21,
                    snapshot_times=(0.05,))
    rd = run(cfg, SystemSpec(d=2, F=F, Q=Q, formulation="direct"))
    rr = run(cfg, SystemSpec(d=2, F=F, Q=Q, formulation="remainder"))
    gap = np.max(np.abs(rd.snapshots[0.05]["u"] - rr.snapshots[0.05]["u"]))
    assert gap < 1e-6      # observed ~1e-15: same weights, different state split
    snap = rr.snapshots[0.05]
    assert np.max(np.abs(snap["u"] - snap["chi"] - snap["phi"])) < 1e-10


def test_run_is_bitwise_deterministic():
    F = CubicPolynomial("u - u^3 - v", 1)
    spec = SystemSpec(d=2, F=F, Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.03, eps=0.25, seed=77,
                    snapshot_times=(0.03,))
    a = run(cfg, spec)
    b = run(cfg, spec)
    assert np.array_equal(a.snapshots[0.03]["u"], b.snapshots[0.03]["u"])
    assert np.array_equal(a.norms["l2_u"], b.norms["l2_u"])
    assert a.manifest["noise_checksum"] == b.manifest["noise_checksum"]


def test_results_do_not_depend_on_the_core_count(monkeypatch):
    # the noise drawn by the caller alone or with two helpers gives the same
    # d = 3 run and d = 2 sweep, and no helper outlives either
    before, runs, sweeps = threading.active_count(), [], []
    F = CubicPolynomial("u - u^3 - v", 1)
    d3 = SystemSpec(d=3, F=F, Q=_scalar_Q())
    d2 = SystemSpec(d=2, F=F, Q=_scalar_Q())
    cfg = RunConfig(n_space=8, dt=1e-3, t_end=0.02, eps=0.25, seed=5)
    for cores in (1, 3):
        monkeypatch.setattr(noise, "_cores", lambda c=cores: c)
        res = run(cfg, d3)
        assert threading.active_count() == before
        runs.append((res.norms, res.manifest["noise_checksum"]))
        rep = epsilon_sweep(d2, replace(cfg, n_space=16), [2 ** -2],
                            t_star=0.01)
        assert threading.active_count() == before
        sweeps.append((rep.D, rep.noise_checksum))
    (a, check_a), (b, check_b) = runs
    assert check_a == check_b and a.keys() == b.keys()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert sweeps[0] == sweeps[1]

def test_run_matches_hand_stepped_full_field_reference():
    # the full-field mollifier and the bare Stepper methods, stepped by hand
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=16, dt=1e-3, t_end=0.02, eps=0.25, seed=13,
                    noise_amplitude=0.7, snapshot_times=(0.02,))
    steps = 20
    pad = math.ceil(0.25 * cfg.eps ** 2 / cfg.dt) + 2
    lat = Lattice(d=2, n_space=16, n_time=steps + pad,
                  t_end=(steps + pad) * cfg.dt)
    xi = sample_white_noise(lat, cfg.seed)
    xi_eps = mollify_noise(xi, cfg.eps)
    st = Stepper(spec, 16, cfg.dt)
    u, v = initial_data(2, 16, cfg.seed + 1, eta=cfg.eta, gamma=cfg.gamma,
                        n_v=1, u0=None, v0=None)
    u_hat = np.fft.rfftn(u)
    chi_hat = np.zeros_like(u_hat)
    for i in range(steps):
        f_hat = cfg.noise_amplitude * np.fft.rfftn(xi_eps.values[i])
        nonlin = st.nonlinearity(u, v)
        u_hat = st.step_u(u_hat, nonlin, f_hat)
        chi_hat = st.decay * chi_hat + st.gain * f_hat
        v = st.step_v(v, u)
        u = st.to_real(u_hat)
    chi = st.to_real(chi_hat)
    assert np.max(np.abs(chi)) > 0.1

    res = run(cfg, spec)
    assert res.manifest["noise_checksum"] == xi.checksum()
    snap = res.snapshots[0.02]
    for name, ref in (("u", u), ("v", v), ("chi", chi), ("phi", u - chi)):
        assert np.max(np.abs(snap[name] - ref)) < 1e-10, name


def test_norm_series_and_manifest_contents():
    F = CubicPolynomial("u - u^3 - v", 1)
    consts = counterterms_for(F, 2, 0.25)
    spec = SystemSpec(d=2, F=F, Q=_scalar_Q(), renorm=consts)
    cfg = RunConfig(n_space=32, dt=1e-3, t_end=0.02, eps=0.25, seed=4,
                    record_every=5)
    res = run(cfg, spec)
    for key in ("sup_u", "l2_u", "sup_v", "l2_v", "sup_phi", "l2_phi"):
        assert len(res.norms[key]) == len(res.times)
    assert res.manifest["renorm"]["C_eps"] == pytest.approx(consts.C_eps)
    assert res.manifest["eps"] == 0.25
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# counterterms
# ---------------------------------------------------------------------------

def test_counterterms_standard_fhn_2d():
    F = CubicPolynomial("u - u^3 - v", 1)
    K = build_truncated_kernel(2)
    ct = counterterms_for(F, 2, 0.25, kernel=K)
    C1 = mollify_kernel(K, 0.25).squared_integral()
    assert ct.C_eps == pytest.approx(3.0 * C1, rel=1e-12)
    # F = u - u^3 - v1: no u^2 term, no u^2 v term; gamma1 = -1
    assert ct.C0 == 0.0
    assert ct.C2_sys == (0.0,)
    assert ct.C1_sys == pytest.approx(ct.C_eps)


def test_counterterms_reject_kernel_of_other_dimension():
    with pytest.raises(ValueError, match="d = 2, not d = 3"):
        counterterms_for(CubicPolynomial("u - u^3 - v", 1), 3, 0.25,
                         kernel=build_truncated_kernel(2))


def test_d3_counterterms_compute_only_c1_and_c2(monkeypatch):
    # C(eps) reads C1 and C2 = 2 int K Q0^2 alone: no K^Q_eps is built, and
    # the constants are those of the full kernel_constants call
    F = CubicPolynomial("u - u^3 - v", 1)
    K = build_truncated_kernel(3)
    full = kernel_constants(3, 0.25, kernel=K, full=True)
    gamma2 = tuple(float(F.gamma2(i)) for i in range(1, F.n_channels + 1))
    want = assemble_C(float(F.beta1), float(F.gamma1), gamma2, full.C1,
                      full.C2)

    def no_kq(*args, **kwargs):
        raise AssertionError("K^Q_eps built")

    monkeypatch.setattr(kernels, "kq_kernel", no_kq)
    got = counterterms_for(F, 3, 0.25, kernel=K)
    assert float(F.gamma1) != 0.0       # C2 enters C(eps)
    assert got.C_eps == pytest.approx(want.C_eps, rel=1e-14, abs=0.0)
    assert kernels.counterterm_constants(K, 0.25) == pytest.approx(
        (full.C1, full.C2), rel=1e-14, abs=0.0)


def test_renormalised_drift_adds_linear_term():
    F = CubicPolynomial("u - u^3 - v", 1)
    ct = counterterms_for(F, 2, 0.25)
    spec = SystemSpec(d=2, F=F, Q=_scalar_Q(), renorm=ct)
    st = Stepper(spec, 8, 1e-3)
    u = np.linspace(-1, 1, 64).reshape(8, 8)
    v = np.zeros((1, 8, 8))
    base = u - u ** 3
    got = st.nonlinearity(u, v)
    assert np.allclose(got, base + ct.C_eps * u, atol=1e-12)


@st.composite
def _cubic_cases(draw):
    """A random admissible cubic, counterterms (or none) and a mixed-sign
    field; the cubic is zero, a constant, or any degree-3 polynomial in
    (u, v1..vn), so u^2 v, u v^2, v^3 and cross terms all occur."""
    n = draw(st.integers(1, 2))
    monos = [e for e in itertools.product(range(4), repeat=n + 1)
             if sum(e) <= 3]
    kind = draw(st.sampled_from(["zero", "constant", "cubic"]))
    if kind == "zero":
        coeffs = {}
    elif kind == "constant":
        coeffs = {(0,) * (n + 1): draw(st.integers(-24, 24))}
    else:
        coeffs = {e: draw(st.integers(-24, 24)) for e in monos
                  if draw(st.booleans())}
    # dyadic coefficients are exact in both evaluations
    expr = sum((sympy.Rational(c, 8) * sympy.prod(
        [g ** k for g, k in zip(sympy.symbols(
            ["u"] + [f"v{i}" for i in range(1, n + 1)]), e)])
        for e, c in coeffs.items()), sympy.Integer(0))
    floats = st.floats(-5.0, 5.0, allow_nan=False)
    renorm = draw(st.one_of(st.none(), st.builds(
        CounterTerms, floats, floats,
        st.tuples(*[floats] * n), st.just(1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amp = draw(st.floats(0.1, 10.0))
    u = amp * rng.uniform(-1.0, 1.0, (8, 8))
    v = amp * rng.uniform(-1.0, 1.0, (n, 8, 8))
    return CubicPolynomial(expr, n), renorm, u, v


@given(_cubic_cases())
@settings(max_examples=150, deadline=None)
def test_nonlinearity_matches_lambdified_cubic(case):
    F, renorm, u, v = case
    n = F.n_channels
    Q = QSpec(A1=(1.0,) * n,
              A2=tuple(tuple(-float(i == j) for j in range(n))
                       for i in range(n)))
    st_ = Stepper(SystemSpec(d=2, F=F, Q=Q, renorm=renorm), 8, 1e-3)
    got = st_.nonlinearity(u, v)
    assert got.shape == u.shape
    vs = [sympy.sympify(v) for v in F.vs]
    expr = sympy.sympify(F.expr)
    f = sympy.lambdify((U_SYM, *vs), expr, "numpy")
    want = f(u, *v) + 0.0 * u
    # size of the terms: |c| |u|^p |v|^q summed over the monomials
    size = np.zeros_like(u)
    for (p, *q), c in sympy.Poly(expr, U_SYM, *vs).terms():
        size += abs(float(c)) * np.abs(u) ** p * np.prod(
            [np.abs(vi) ** k for vi, k in zip(v, q)], axis=0)
    if renorm is not None:
        want = want + renorm.C0 + renorm.C1_sys * u + sum(
            c * vi for c, vi in zip(renorm.C2_sys, v))
        size += abs(renorm.C0) + abs(renorm.C1_sys) * np.abs(u) + sum(
            abs(c) * np.abs(vi) for c, vi in zip(renorm.C2_sys, v))
    assert np.all(np.abs(got - want) <= 1e-14 * size)


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n_space, n_time, slices", [
    (2, 16, 60, (0, 3, 17, 30, 55, 59)),
    (3, 8, 45, (0, 3, 17, 30, 40, 44)),
], ids=["d2", "d3"])
def test_fir_mollifier_matches_full_field_path(d, n_space, n_time, slices):
    # an independent reference: the direct temporal convolution of the
    # whole field (fftconvolve), then the spatial profile transform
    from scipy.signal import fftconvolve
    lat = Lattice(d=d, n_space=n_space, n_time=n_time, t_end=n_time / 256)
    spec = MollifierSpec(d)
    ax = tuple(range(1, d + 1))
    xi = sample_white_noise(lat, 77)
    wt = _temporal_weights(spec, 0.25, lat.dt)
    smooth_t = fftconvolve(xi.values, wt.reshape((-1,) + (1,) * d),
                           mode="same", axes=0)
    ref = np.fft.irfftn(np.fft.rfftn(smooth_t, axes=ax) * mollifier_transform(
        spec, 0.25, lat.k_magnitudes()), s=lat.shape[1:], axes=ax)
    field = mollify_noise(xi, 0.25).values
    fir = _FIRMollifier(lat, 0.25, spec)
    assert fir.half > 0
    raw_hat = np.fft.rfftn(xi.values, axes=ax)
    for i in slices:
        mine = np.fft.irfftn(fir.slice_hat(raw_hat, i, 1)[0],
                             s=lat.shape[1:], axes=tuple(range(d)))
        assert np.max(np.abs(mine - ref[i])) < 1e-11, i
        assert np.max(np.abs(field[i] - ref[i])) < 1e-11, i


@pytest.mark.parametrize("d, n_space, dt, n_time, scales", [
    (2, 16, 1e-3, 61, (0.25, 0.125)),
    (3, 8, 4e-3, 45, (0.5, 0.25)),
])
def test_blocked_fir_matches_per_step_reference(d, n_space, dt, n_time,
                                                scales):
    lat = Lattice(d=d, n_space=n_space, n_time=n_time, t_end=n_time * dt)
    xi = sample_white_noise(lat, 5)
    raw_hat = np.fft.rfftn(xi.values, axes=tuple(range(1, d + 1)))
    assert n_time % _FIR_BLOCK
    for e in scales:
        fir = _FIRMollifier(lat, e, MollifierSpec(d))
        # with taps on both sides, the first block is clipped at slice 0
        # and the last one at n_time
        assert fir.half > 0
        for steps in (n_time, _FIR_BLOCK - 3):
            for start in range(0, steps, _FIR_BLOCK):
                b = min(_FIR_BLOCK, steps - start)
                block = fir.slice_hat(raw_hat, start, b)
                assert block.shape == (b,) + raw_hat.shape[1:]
                for i in range(start, start + b):
                    lo = max(0, i - fir.half)
                    hi = min(n_time, i + fir.half + 1)
                    w = fir.wt[fir.half - (i - lo):fir.half + (hi - i)]
                    ref = np.tensordot(w, raw_hat[lo:hi], axes=(0, 0)) \
                        * fir.rho_hat
                    assert np.max(np.abs(block[i - start] - ref)) \
                        <= 1e-13 * np.max(np.abs(ref)), (e, steps, i)


@pytest.mark.parametrize("d, n_space, dt, steps, scales", [
    (2, 32, 2e-3, 80, (0.25, 0.125, 0.0625)),
    (3, 8, 5e-3, 120, (0.5, 0.25)),
    (2, 16, 2e-3, 5, (0.25, 0.125)),      # shorter than one filter window
])
def test_streamed_forcing_equals_whole_history_formula(d, n_space, dt, steps,
                                                       scales):
    cfg = RunConfig(n_space=n_space, dt=dt, t_end=steps * dt,
                    eps=min(scales), seed=8, noise_amplitude=0.7)
    stream, forcing = _noise_forcing(d, cfg, steps, scales)
    lat = stream.lattice
    firs = {e: _FIRMollifier(lat, e, MollifierSpec(d)) for e in scales}
    width = 2 * max(fir.half for fir in firs.values()) + 1
    assert steps >= 3 * width or steps < width
    xi = sample_white_noise(lat, cfg.seed)
    raw_hat = np.stack([np.fft.rfftn(x) for x in xi.values])
    for i in range(steps):
        got = forcing(i)
        for e, fir in firs.items():
            start = i - i % _FIR_BLOCK
            block = fir.slice_hat(raw_hat, start, min(_FIR_BLOCK,
                                                      steps - start))
            assert np.array_equal(got[e], 0.7 * block[i - start]), (i, e)
    assert stream.checksum() == xi.checksum()


def test_streamed_forcing_memory_does_not_grow_with_run_length():
    def peak(steps: int) -> int:
        cfg = RunConfig(n_space=32, dt=2e-3, t_end=steps * 2e-3, eps=0.125,
                        seed=2)
        tracemalloc.start()
        try:
            stream, forcing = _noise_forcing(2, cfg, steps, (0.25, 0.125))
            tracemalloc.reset_peak()    # filter set-up: run-length free
            for i in range(steps):
                forcing(i)
            stream.checksum()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(200), peak(400)
    # the whole complex history of the long run alone is 3.6 MB
    assert long < 1.1 * short < 1e6, (short, long)


@pytest.mark.parametrize("n_space", [64, 128])
def test_short_sweep_memory_matches_closed_form_count(n_space):
    # a sweep holds its noise window (min(n_time, (2 half + 8) 9/8)
    # slices), u, v and w_hat per member, one chi_hat per scale and one
    # block of 8 forcing steps per scale; no set-up transient (mollifier
    # transform, kernel constants) and no per-member copy of the shared
    # arrays may lift the peak above that
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    dt, t_star, eps_list = 1e-4, 2e-3, [2 ** -2, 2 ** -3, 2 ** -4]
    cfg = RunConfig(n_space=n_space, dt=dt, t_end=t_star, eps=0.25, seed=4)
    scales = {e for e in eps_list} | {e / 2 for e in eps_list}
    mspec = MollifierSpec(2)
    half = max((len(_temporal_weights(mspec, e, dt)) - 1) // 2
               for e in scales)
    n_time = round(t_star / dt) + 2 \
        + math.ceil(mspec.t_halfwidth * max(scales) ** 2 / dt)
    width = 2 * half + _FIR_BLOCK
    members = 2 * len(scales)
    spectral = 16 * n_space * (n_space // 2 + 1)
    count = (min(n_time, width + width // 8) + members
             + len(scales) * (1 + _FIR_BLOCK)) * spectral \
        + members * 2 * 8 * n_space ** 2
    tracemalloc.start()
    try:
        epsilon_sweep(spec, cfg, eps_list, t_star=t_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak / count - 1) < 0.1, (peak, count)


@pytest.mark.parametrize("formulation", ["direct", "remainder"])
def test_sweep_integrates_one_chi_per_scale(monkeypatch, formulation):
    # the members at one scale read one chi_hat, which steps once; chi is
    # transformed once per scale and step in the remainder formulation,
    # and once per scale for the final D_phi in the direct one
    seen = {}
    lockstep = solver._lockstep

    def spy(members, *args):
        seen.update(members)
        return lockstep(members, *args)

    calls = []
    to_real = Stepper.to_real
    monkeypatch.setattr(solver, "_lockstep", spy)
    monkeypatch.setattr(Stepper, "to_real",
                        lambda self, x: calls.append(1) or to_real(self, x))
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1),
                      Q=_scalar_Q(), formulation=formulation)
    steps, scales = 6, (2 ** -2, 2 ** -3)
    cfg = RunConfig(n_space=16, dt=1e-3, t_end=1.0, eps=0.25, seed=3)
    epsilon_sweep(spec, cfg, [2 ** -2], t_star=steps * cfg.dt)
    assert len(seen) == 4
    for e in scales:
        a, b = seen[("renormalised", e)], seen[("unrenormalised", e)]
        assert a.chi is b.chi and a.chi.eps == e
        assert a.st is not b.st and a.st.decay is b.st.decay
    assert seen[("renormalised", scales[0])].chi \
        is not seen[("renormalised", scales[1])].chi
    # every member transforms its own w_hat once per step
    want = steps * (len(seen) + len(scales)) if formulation == "remainder" \
        else steps * len(seen) + len(scales)
    assert len(calls) == want


def test_epsilon_sweep_structure_and_contraction():
    F = CubicPolynomial("u - u^3 - v", 1)
    spec = SystemSpec(d=2, F=F, Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=31,
                    record_every=8)
    rep = epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.02)
    assert rep.eps == [2 ** -3]
    for mode in ("renormalised", "unrenormalised"):
        for ch in ("u", "v", "phi"):
            assert len(rep.D[mode][ch]) == 1
            sup, l2 = rep.D[mode][ch][0]
            assert np.isfinite(sup) and np.isfinite(l2) and sup >= l2 >= 0
    bound = 1.1 * max(1.0, rep.contraction["q_l1"])
    for data in rep.contraction["pairs"].values():
        assert data["max_ratio"] <= bound
    assert 2 ** -3 in rep.constants
    # pinned: (sup, L2) per mode and channel, and the contraction ratios
    # (running sup of ||du||_2 against ||dv||_2 over six record times)
    want_D = {
        "renormalised": {
            "u": (0.47108036292285804, 0.15642308550840303),
            "v": (0.0016478658113256994, 0.00045958365103686315),
            "phi": (0.01286759218188993, 0.006356330020671165)},
        "unrenormalised": {
            "u": (0.4792708696710377, 0.1563541028750062),
            "v": (0.0014632194876316174, 0.0004362665614843575),
            "phi": (0.006113810369297701, 0.002164111759598953)}}
    for mode, chans in want_D.items():
        for ch, want in chans.items():
            assert rep.D[mode][ch][0] == pytest.approx(want, rel=1e-12)
    assert rep.contraction["pairs"] == {
        ("renormalised", 2 ** -3, 2 ** -4):
            {"max_ratio": pytest.approx(0.0028327399621058016, rel=1e-12)},
        ("unrenormalised", 2 ** -3, 2 ** -4):
            {"max_ratio": pytest.approx(0.002699326396749276, rel=1e-12)}}
    rep2 = epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.02)
    assert rep2.noise_checksum == rep.noise_checksum
    assert rep2.D["renormalised"]["u"] == rep.D["renormalised"]["u"]


def test_epsilon_sweep_honours_formulation():
    # the remainder formulation evolves phi = u - chi: the same D to
    # rounding, and the manifest names the formulation that ran (a repeated
    # scale is one pair)
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=31,
                    record_every=8)
    direct = epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.02)
    rem = epsilon_sweep(replace(spec, formulation="remainder"), cfg,
                        [2 ** -3, 2 ** -3], t_star=0.02)
    assert rem.eps == [2 ** -3] and len(rem.contraction["pairs"]) == 2
    assert direct.manifest["formulation"] == "direct"
    assert rem.manifest["formulation"] == "remainder"
    for mode in direct.D:
        for ch in ("u", "v", "phi"):
            np.testing.assert_allclose(rem.D[mode][ch], direct.D[mode][ch],
                                       rtol=0, atol=1e-10)


def test_epsilon_sweep_guards_fine_scales():
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=1)
    with pytest.raises(ValueError):
        # pair partner 2^-5 falls below 2 dx = 2^-4
        epsilon_sweep(spec, cfg, [2 ** -4], t_star=0.01)


def test_epsilon_sweep_rejects_rough_exponents():
    # the initial-data exponents are checked by RunConfig.validate, which the
    # sweep runs before any counterterm or noise work
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    for bad in ({"eta": -2.0 / 3.0}, {"gamma": 1.0}):
        cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=1,
                        **bad)
        with pytest.raises(ValueError):
            epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.01)


@pytest.mark.parametrize("modes", [("renormalized",), (),
                                   ("unrenormalised", "both")])
def test_epsilon_sweep_rejects_unknown_or_empty_modes(monkeypatch, modes):
    # a misspelt mode would run unrenormalised dynamics under its label, and
    # no mode would draw the whole noise for nothing: both fail first
    def no_noise(*args, **kwargs):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(solver, "_noise_forcing", no_noise)
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=1)
    with pytest.raises(ValueError, match="modes"):
        epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.01, modes=modes)


@pytest.mark.parametrize("t_star", [math.nan, -1.0, 0.0, math.inf])
def test_epsilon_sweep_rejects_bad_t_star(monkeypatch, t_star):
    # t_star sets the step count: a NaN or infinite one has none and a
    # non-positive one records nothing, so each fails before any noise
    def no_noise(*args, **kwargs):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(solver, "_noise_forcing", no_noise)
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=1,
                    noise_amplitude=0.0)
    with pytest.raises(ValueError, match="t_star"):
        epsilon_sweep(spec, cfg, [2 ** -3], t_star=t_star)


def test_epsilon_sweep_honours_noise_amplitude():
    # without noise chi vanishes, so the remainder gap is the u gap
    spec = SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1), Q=_scalar_Q())
    cfg = RunConfig(n_space=32, dt=5e-4, t_end=1.0, eps=0.25, seed=31,
                    noise_amplitude=0.0, record_every=8)
    rep = epsilon_sweep(spec, cfg, [2 ** -3], t_star=0.01)
    for mode in ("renormalised", "unrenormalised"):
        assert rep.D[mode]["phi"] == rep.D[mode]["u"]

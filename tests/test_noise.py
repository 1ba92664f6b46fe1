"""Distributional oracles for lattice noise, convolutions, and Wick powers.

Monte-Carlo assertions follow the 3-standard-error convention; ensemble
sizes are chosen so systematic discretisation bias stays below one SE.
"""

import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhnspde.kernels import (
    MollifierSpec,
    build_truncated_kernel,
    correlate,
    mollify_kernel,
    panel_grid,
)
from fhnspde.noise import (
    FORMAT_VERSION,
    Field,
    Lattice,
    NoiseField,
    NoiseStream,
    ResolutionError,
    counter_gaussians,
    mollifier_transform,
    mollify_noise,
    radial_fourier,
    sample_white_noise,
    save_field,
)
from fhnspde import noise
from fhnspde.renorm import CubicPolynomial
from fhnspde.solver import QSpec, Stepper, SystemSpec
from reference import (
    kernel_convolution,
    kernel_slice_transforms,
    lattice_chi_constant,
    lattice_covariance,
    whole_basis_mollifier_transform,
    wick_cube,
    wick_square,
)


# ---------------------------------------------------------------------------
# lattice and raw sampling
# ---------------------------------------------------------------------------

def test_lattice_geometry():
    lat = Lattice(d=2, n_space=16, n_time=40, t_end=0.5)
    assert lat.dt == pytest.approx(0.0125)
    assert lat.dx == pytest.approx(1 / 16)
    assert lat.shape == (40, 16, 16)
    assert math.prod(lat.shape) == 40 * 256
    assert lat.cell_volume == pytest.approx(0.0125 / 256)
    assert lat.k_magnitudes().shape == lat.spectral_shape == (16, 9)


def test_lattice_rejects_degenerate():
    for d in (1, 4):
        with pytest.raises(ValueError):
            Lattice(d=d, n_space=8, n_time=4, t_end=1.0)
    with pytest.raises(ValueError):
        Lattice(d=2, n_space=8, n_time=4, t_end=0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_lattice_transform_pair_equals_numpy_rfftn(d, n, lead):
    # the package's one spatial transform pair is rfftn / irfftn over the
    # last d axes bit for bit, with or without a leading time axis
    lat = Lattice(d=d, n_space=n, n_time=5, t_end=1.0)
    x = np.random.default_rng(n + d).standard_normal(lead + (n,) * d)
    ax = tuple(range(len(lead), len(lead) + d))
    x_hat = lat.rfft(x)
    assert np.array_equal(x_hat, np.fft.rfftn(x, axes=ax))
    kept = x_hat.copy()
    back = lat.irfft(x_hat)
    assert np.array_equal(back, np.fft.irfftn(kept, s=(n,) * d, axes=ax))
    assert np.array_equal(x_hat, kept)         # the argument is not written
    buf = np.empty_like(x_hat)
    assert lat.rfft(x, out=buf) is buf and np.array_equal(buf, kept)


def test_lattice_dealias_is_the_two_thirds_rule():
    lat = Lattice(d=2, n_space=12, n_time=1, t_end=1.0)
    k = np.fft.fftfreq(12, d=1 / 12)
    kr = np.fft.rfftfreq(12, d=1 / 12)
    want = (np.abs(k)[:, None] <= 4) & (np.abs(kr)[None, :] <= 4)
    assert lat.dealias().dtype == float
    assert np.array_equal(lat.dealias(), want.astype(float))


def test_counter_gaussians_chunk_independent():
    whole = counter_gaussians(99, 0, 500)
    assert np.array_equal(counter_gaussians(99, 123, 77), whole[123:200])
    assert np.array_equal(counter_gaussians(99, 0, 500), whole)
    assert not np.array_equal(counter_gaussians(98, 0, 500), whole)


def _box_muller_formula(seed, start, count):
    # the reference: the Box-Muller map in one expression per value
    w = noise._raw_words(seed, 2 * start, 2 * count)
    u1 = ((w[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    u2 = (w[1::2] >> np.uint64(11)) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


@pytest.mark.parametrize("start", [0, 1, 2, 3, 5, 1001, 2 ** 20 + 3])
def test_counter_gaussians_match_formula_bit_for_bit(start):
    # the in-place Box-Muller steps give the formula's values exactly, at
    # starts off the four-word Philox blocks and at several sizes
    for count in (0, 1, 2, 7, 4096, 32768 + 5):
        got = counter_gaussians(17, start, count)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, _box_muller_formula(17, start, count))


def test_counter_gaussians_moments():
    z = counter_gaussians(7, 0, 1_000_000)
    assert abs(float(np.mean(z))) < 3e-3
    assert float(np.var(z)) == pytest.approx(1.0, rel=0.005)
    # tail sanity: fourth moment of a standard normal
    assert float(np.mean(z ** 4)) == pytest.approx(3.0, rel=0.02)


def test_white_noise_cell_variance_within_one_percent():
    lat = Lattice(d=2, n_space=64, n_time=256, t_end=1.0)
    xi = sample_white_noise(lat, 2024)
    target = 1.0 / lat.cell_volume
    assert xi.values.size >= 1_000_000
    assert float(np.var(xi.values)) == pytest.approx(target, rel=0.01)
    assert abs(float(np.mean(xi.values))) < 3 * math.sqrt(
        target / xi.values.size)


def test_white_noise_reproducible_bitwise():
    lat = Lattice(d=3, n_space=8, n_time=10, t_end=0.1)
    a = sample_white_noise(lat, 5)
    b = sample_white_noise(lat, 5)
    assert np.array_equal(a.values, b.values)
    assert a.checksum() == b.checksum()
    assert a.checksum() != sample_white_noise(lat, 6).checksum()


@pytest.mark.parametrize("d, n", [(2, 16), (2, 8), (3, 6)])
def test_white_noise_sliced_draw_equals_whole_draw(d, n):
    # one draw per time slice gives the whole-history draw bit for bit
    lat = Lattice(d=d, n_space=n, n_time=13, t_end=0.1)
    sigma = 1.0 / math.sqrt(lat.cell_volume)
    whole = sigma * counter_gaussians(11, 0, math.prod(lat.shape))
    assert np.array_equal(sample_white_noise(lat, 11).values.ravel(), whole)


@pytest.mark.parametrize("d, n", [(2, 8), (3, 4)])
def test_noise_stream_windows_and_checksum(d, n):
    # sliding windows hold the slices' spatial transforms bit for bit, and
    # the checksum also covers the slices no window reached
    lat = Lattice(d=d, n_space=n, n_time=40, t_end=0.4)
    xi = sample_white_noise(lat, 9)
    ref = np.stack([np.fft.rfftn(x) for x in xi.values])
    stream = NoiseStream(lat, 9, 9)
    for i in range(30):
        lo, hi = max(0, i - 4), i + 5
        assert np.array_equal(stream.window(lo, hi), ref[lo:hi]), i
    assert stream.checksum() == xi.checksum()
    assert stream.checksum() == xi.checksum()     # reading it consumes none
    for lo, hi in ((0, 5), (29, 40), (36, 41)):
        # behind the held slices, wider than the buffer, past the lattice
        with pytest.raises(ValueError, match="window"):
            stream.window(lo, hi)


@pytest.fixture
def short_switch():
    """Threads switch as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("d, n", [(2, 8), (3, 4)])
def test_noise_stream_is_the_same_on_any_core_count(d, n, cores,
                                                    monkeypatch, short_switch):
    # the engine's block-sized windows, drawn by the caller alone or with two
    # helpers, hold the same transforms bit for bit across buffer shifts;
    # the checksum is the same read before any window and after some
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    lat = Lattice(d=d, n_space=n, n_time=60, t_end=0.6)
    xi = sample_white_noise(lat, 9)
    ref = np.stack([np.fft.rfftn(x) for x in xi.values])
    assert NoiseStream(lat, 9, 21).checksum() == xi.checksum()
    stream = NoiseStream(lat, 9, 21)
    for start in range(0, 40, 8):
        lo, hi = max(0, start - 6), start + 14
        assert np.array_equal(stream.window(lo, hi), ref[lo:hi]), start
    assert stream._first > 0                          # the buffer shifted
    assert stream.checksum() == xi.checksum()


@pytest.mark.parametrize("bad", [3, 4])
def test_noise_stream_error_reaches_the_caller(bad, monkeypatch):
    # slice j goes to thread j mod 2, so a helper draws slice 3 and the
    # caller slice 4 (the error says which): either error is raised by
    # window, in bounded time, and no helper is left running
    monkeypatch.setattr(noise, "_cores", lambda: 2)
    white = noise._white_slice

    def failing(lattice, seed, i):
        if i == bad:
            raise ArithmeticError(threading.current_thread() is caller)
        return white(lattice, seed, i)

    monkeypatch.setattr(noise, "_white_slice", failing)
    stream = NoiseStream(Lattice(d=2, n_space=8, n_time=20, t_end=0.2), 1, 12)
    before, caught = threading.active_count(), []

    def call():
        try:
            stream.window(0, 10)
        except ArithmeticError as exc:
            caught.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [str(e) for e in caught] == [str(bad == 4)]
    assert threading.active_count() == before


def test_noise_stream_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(noise, "_cores", lambda: 3)
    before = threading.active_count()
    stream = NoiseStream(Lattice(d=3, n_space=4, n_time=30, t_end=0.3), 2, 12)
    stream.window(0, 12)
    assert threading.active_count() == before
    stream.checksum()
    assert threading.active_count() == before


def test_white_noise_pairing_isometry():
    # Var(<xi, phi>) equals the discrete L2 norm of phi
    lat = Lattice(d=2, n_space=8, n_time=50, t_end=0.5)
    t = (lat.dt * np.arange(lat.n_time))[:, None, None]
    x = np.arange(lat.n_space) * lat.dx
    phi = (np.sin(2 * math.pi * x)[None, :, None]
           * np.cos(4 * math.pi * x)[None, None, :]
           * np.exp(-t))
    norm2 = float(np.sum(phi ** 2)) * lat.cell_volume
    pair = [float(np.sum(sample_white_noise(lat, 3000 + s).values * phi))
            * lat.cell_volume for s in range(200)]
    est = float(np.var(pair, ddof=1))
    se = norm2 * math.sqrt(2.0 / 199)
    assert abs(est - norm2) < 3 * se


# ---------------------------------------------------------------------------
# radial Fourier transforms
# ---------------------------------------------------------------------------

def test_j0_matches_scipy_bit_for_bit():
    # the d = 2 transform basis is the Cephes J0 that scipy.special.j0
    # runs: same value in every bit, across both branches (x <= 5 and the
    # asymptotic form) and the small-argument series below 1e-5
    from scipy.special import j0
    x = np.r_[np.linspace(0.0, 600.0, 1_200_001),
              np.random.default_rng(2).uniform(0.0, 600.0, 200_000),
              np.geomspace(1e-12, 5.0, 10_000), 5.0, np.nextafter(5.0, 6.0),
              1e-5, -3.0]
    np.testing.assert_array_equal(noise._j0(x), j0(x))


@pytest.mark.parametrize("d", [2, 3])
def test_radial_fourier_truncated_gaussian(d):
    # a unit-mass Gaussian cut at ten widths (tail below 1e-20) transforms
    # to exp(-2 pi^2 sigma^2 k^2)
    sigma = 0.05

    def gauss(r):
        return np.exp(-r ** 2 / (2 * sigma ** 2)) \
            / (2 * math.pi * sigma ** 2) ** (d / 2)

    k = np.array([0.0, 0.5, 3.0, 7.5, 12.0])
    got = radial_fourier(gauss, 10 * sigma, k, d)
    want = np.exp(-2 * math.pi ** 2 * sigma ** 2 * k ** 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["bump", "gauss"])
@pytest.mark.parametrize("d, n_space", [(2, 128), (3, 64)])
def test_blocked_mollifier_transform_equals_whole_basis(d, n_space, kind,
                                                        monkeypatch):
    # the basis is evaluated a block of rows of k at a time; every row's
    # sum is the one the whole (distinct |eps k|) x (nodes) matrix gives
    k = Lattice(d=d, n_space=n_space, n_time=1, t_end=1.0).k_magnitudes()
    spec = MollifierSpec(d, kind)
    calls = []
    j0 = noise._j0
    monkeypatch.setattr(noise, "_j0", lambda x: calls.append(1) or j0(x))
    blocks = []
    for eps in (2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5):
        calls.clear()
        np.testing.assert_array_equal(
            mollifier_transform(spec, eps, k),
            whole_basis_mollifier_transform(spec, eps, k))
        blocks.append(len(calls))
    if d == 2:
        # the 1621 distinct |eps k| at 128^2 and eps = 1/4 span many blocks
        assert blocks[0] > 1


def test_mollifier_transform_memory_is_one_block():
    # the whole basis at 256^2 and eps = 1/4 is 5924 magnitudes x 1144
    # nodes, 54 MB per temporary and a 516 MB peak; a block is far smaller
    k = Lattice(d=2, n_space=256, n_time=1, t_end=1.0).k_magnitudes()
    tracemalloc.start()
    try:
        mollifier_transform(MollifierSpec(2), 0.25, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_resolution_guard():
    lat = Lattice(d=2, n_space=8, n_time=10, t_end=0.1)
    xi = sample_white_noise(lat, 1)
    with pytest.raises(ResolutionError):
        mollify_noise(xi, eps=0.1)          # 2*dx = 0.25


def test_mollify_deterministic():
    lat = Lattice(d=2, n_space=16, n_time=30, t_end=0.3)
    xi = sample_white_noise(lat, 11)
    a = mollify_noise(xi, 0.25)
    b = mollify_noise(xi, 0.25)
    assert np.array_equal(a.values, b.values)
    assert a.meta["eps"] == 0.25


def _discrete_mollified_variance(lat, eps, spec):
    from fhnspde.noise import _temporal_weights
    wt = _temporal_weights(spec, eps, lat.dt)
    rho = mollifier_transform(spec, eps, lat.k_magnitudes())
    mult = np.full(rho.shape, 2.0)
    mult[..., 0] = 1.0
    if lat.n_space % 2 == 0:
        mult[..., -1] = 1.0
    return (float(np.sum(wt ** 2)) / lat.cell_volume
            * float(np.sum(mult * rho ** 2)) / lat.n_space ** lat.d)


def test_mollified_variance_matches_isometry():
    lat = Lattice(d=2, n_space=32, n_time=160, t_end=0.4)
    eps = 0.25
    spec = MollifierSpec(2)
    pred = _discrete_mollified_variance(lat, eps, spec)
    # continuum Ito isometry value: ||rho_eps||_L2^2
    g = panel_grid(list(np.linspace(-0.25, 0.25, 33)), 8)
    t_l2 = float(np.sum(g.weights * spec.t_profile(g.nodes) ** 2))
    g = panel_grid(list(np.linspace(0.0, 0.5, 33)), 8)
    x_l2 = 2 * math.pi * float(
        np.sum(g.weights * g.nodes * spec.x_profile(g.nodes) ** 2))
    cont = (t_l2 / eps ** 2) * (x_l2 / eps ** 2)
    assert pred == pytest.approx(cont, rel=0.02)
    samples = []
    for s in range(60):
        xi = sample_white_noise(lat, 7000 + s)
        mid = mollify_noise(xi, eps, spec).values[40:120]
        samples.append(float(np.mean(mid ** 2)))
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    assert abs(est - pred) < 3 * se


def test_mollified_mean_centred():
    lat = Lattice(d=2, n_space=16, n_time=60, t_end=0.3)
    means = []
    for s in range(60):
        xi = sample_white_noise(lat, 8100 + s)
        means.append(float(np.mean(mollify_noise(xi, 0.25).values)))
    est = float(np.mean(means))
    se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
    assert abs(est) < 3 * se


# ---------------------------------------------------------------------------
# stochastic convolutions
# ---------------------------------------------------------------------------

def test_engine_heat_step_single_mode_ou_variance():
    # unmollified noise, coarse space, fine time: the engine's exact heat
    # step with zero nonlinearity gives stationary mode variance
    # 1/(2 (2 pi |k|)^2)
    lat = Lattice(d=2, n_space=8, n_time=3000, t_end=3.0)
    spec = SystemSpec(d=2, F=CubicPolynomial(0, 1),
                      Q=QSpec(A1=(1.0,), A2=((-1.0,),)))
    st = Stepper(spec, lat.n_space, lat.dt)
    zero = np.zeros((lat.n_space,) * 2)
    acc = []
    for s in range(30):
        xi = sample_white_noise(lat, 4000 + s)
        f_hat = np.fft.rfftn(xi.values, axes=(1, 2))
        chi_hat = np.zeros_like(f_hat[0])
        chat = []
        for i in range(1, lat.n_time):     # chi_hat now holds chi(i dt)
            chi_hat = st.step_u(chi_hat, zero, f_hat[i - 1])
            if i >= 1500:
                chat.append(chi_hat[1, 0] / lat.n_space ** 2)
        acc.append(float(np.mean(np.abs(chat) ** 2)))
    lam = (2 * math.pi) ** 2
    est = float(np.mean(acc))
    se = float(np.std(acc, ddof=1)) / math.sqrt(len(acc))
    assert abs(est - 1 / (2 * lam)) < 3 * se + 0.01 / (2 * lam)


def test_kernel_convolution_matches_exact_lattice_covariance():
    eps = 0.25
    keps = mollify_kernel(build_truncated_kernel(2), eps)
    lat = Lattice(d=2, n_space=32, n_time=416, t_end=416 / 256.0)
    tr = kernel_slice_transforms(keps, lat)
    i_star = 384
    cases = {
        "var": (0, None), "dx4": (0, (4, 0)), "dt8": (8, None),
    }
    exact = {k: lattice_covariance(keps, lat, lt, lx, tr)
             for k, (lt, lx) in cases.items()}
    est = {k: [] for k in cases}
    for s in range(30):
        xi = sample_white_noise(lat, 500 + s)
        chi = kernel_convolution(xi, keps, [i_star, i_star + 8], tr)
        est["var"].append(float(np.mean(chi[0] ** 2)))
        est["dx4"].append(float(np.mean(chi[0] * np.roll(chi[0], -4, 0))))
        est["dt8"].append(float(np.mean(chi[0] * chi[1])))
    for k in cases:
        m = float(np.mean(est[k]))
        se = float(np.std(est[k], ddof=1)) / math.sqrt(len(est[k]))
        assert abs(m - exact[k]) < 3 * se, (k, m, exact[k], se)


def test_lattice_covariance_matches_continuum_correlation():
    # cross-module oracle: the transform-space prediction agrees with the
    # periodised real-space correlation of the same kernel
    from scipy.interpolate import CubicSpline
    eps = 0.25
    keps = mollify_kernel(build_truncated_kernel(2), eps, level=1)
    nt = 872
    lat = Lattice(d=2, n_space=32, n_time=nt, t_end=nt / 512.0)
    tr = kernel_slice_transforms(keps, lat)
    rho_out = np.linspace(0.0, 2.2, 140)
    [q0] = correlate(keps, (keps,), np.array([0.0, 16 * lat.dt]), rho_out)
    spl = [CubicSpline(rho_out, q0[i]) for i in range(2)]

    def periodised(sp, z):
        return sum(float(sp(math.hypot(z[0] + mx, z[1] + my)))
                   for mx in range(-2, 3) for my in range(-2, 3)
                   if math.hypot(z[0] + mx, z[1] + my) < 2.2)

    cases = [(0, None, spl[0], (0.0, 0.0)),
             (0, (2, 0), spl[0], (2 / 32, 0.0)),
             (0, (4, 4), spl[0], (4 / 32, 4 / 32)),
             (16, None, spl[1], (0.0, 0.0)),
             (16, (2, 0), spl[1], (2 / 32, 0.0))]
    for lagt, lagx, sp, z in cases:
        latv = lattice_covariance(keps, lat, lagt, lagx, tr)
        cont = periodised(sp, z)
        assert latv == pytest.approx(cont, rel=0.015), (lagt, lagx)


# ---------------------------------------------------------------------------
# Wick powers
# ---------------------------------------------------------------------------

def test_wick_trivial_forms():
    z = np.zeros((4, 4))
    assert np.all(wick_square(z, 1.7) == -1.7)
    assert np.all(wick_cube(z, 1.7) == 0.0)
    x = np.full((2, 2), 2.0)
    assert np.all(wick_square(x, 3.0) == 1.0)
    assert np.all(wick_cube(x, 0.5) == 8.0 - 3.0)


def test_wick_means_and_raw_variance():
    eps = 0.3
    keps = mollify_kernel(build_truncated_kernel(2), eps)
    lat = Lattice(d=2, n_space=16, n_time=200, t_end=200 / 128.0)
    tr = kernel_slice_transforms(keps, lat)
    c_lat = lattice_chi_constant(keps, lat, tr)
    out_slices = [150, 170, 190]
    sq, cb, raw = [], [], []
    for s in range(40):
        xi = sample_white_noise(lat, 9200 + s)
        chi = kernel_convolution(xi, keps, out_slices, tr)
        pts = chi[:, ::5, ::5]            # >= 10 sample points
        sq.append(float(np.mean(wick_square(pts, c_lat))))
        cb.append(float(np.mean(wick_cube(pts, c_lat))))
        raw.append(float(np.mean(pts ** 2)))
    for vals, target in ((sq, 0.0), (cb, 0.0), (raw, c_lat)):
        m = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(m - target) < 3 * se, (m, target, se)


# ---------------------------------------------------------------------------
# field files and common-noise coupling
# ---------------------------------------------------------------------------

def load_field(path) -> Field:
    """Reader of the `save_field` format."""
    base = Path(path)
    manifest = json.loads(base.with_suffix(".json").read_text())
    if manifest["format_version"] != FORMAT_VERSION:
        raise ValueError("unsupported field format version")
    vals = np.frombuffer(base.with_suffix(".bin").read_bytes(),
                         dtype="<f8").reshape(manifest["dims"])
    lat = Lattice(d=manifest["d"], n_space=manifest["n_space"],
                  n_time=manifest["n_time"], t_end=manifest["t_end"])
    return Field(lattice=lat, values=vals.copy(),
                 meta=manifest.get("meta", {}))


def test_field_roundtrip(tmp_path):
    lat = Lattice(d=2, n_space=8, n_time=6, t_end=0.1)
    xi = sample_white_noise(lat, 77)
    f = mollify_noise(xi, 0.3)
    p = save_field(tmp_path / "field", f)
    assert p.suffix == ".bin"
    back = load_field(tmp_path / "field")
    assert np.array_equal(back.values, f.values)
    assert back.lattice == lat
    assert back.meta["eps"] == 0.3
    raw = p.read_bytes()
    assert len(raw) == f.values.size * 8
    assert np.frombuffer(raw[:8], dtype="<f8")[0] == f.values.flat[0]


def test_field_format_version_guard(tmp_path):
    lat = Lattice(d=2, n_space=4, n_time=2, t_end=0.1)
    f = Field(lattice=lat, values=np.zeros(lat.shape))
    save_field(tmp_path / "f", f)
    side = tmp_path / "f.json"
    m = json.loads(side.read_text())
    m["format_version"] = 99
    side.write_text(json.dumps(m))
    with pytest.raises(ValueError):
        load_field(tmp_path / "f")


def test_field_rejects_nonfinite():
    lat = Lattice(d=2, n_space=4, n_time=2, t_end=0.1)
    bad = np.zeros(lat.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(lattice=lat, values=bad)


def test_common_noise_across_scales():
    # one realisation drives every eps: mollifications at two scales are
    # deterministic functions of the same checksummed field
    lat = Lattice(d=2, n_space=32, n_time=40, t_end=0.2)
    xi = sample_white_noise(lat, 31415)
    ck = xi.checksum()
    a1 = mollify_noise(xi, 0.25)
    a2 = mollify_noise(xi, 0.125)
    xi_again = sample_white_noise(lat, 31415)
    assert xi_again.checksum() == ck
    assert np.array_equal(mollify_noise(xi_again, 0.25).values, a1.values)
    assert np.array_equal(mollify_noise(xi_again, 0.125).values, a2.values)
    assert not np.array_equal(a1.values, a2.values)

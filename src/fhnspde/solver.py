"""Time integration of the renormalised fast-slow systems.

The fast channel is advanced by a first-order exponential (ETD) integrator in
Fourier space: the heat part is exact per mode, the nonlinearity enters
through the phi1 weight, and cubic terms are evaluated pseudo-spectrally with
2/3 dealiasing.  F and its counterterms are read once into a table of float
coefficients and evaluated in Horner form in u by array products only, so
sympy stays out of the time loop.  The slow channel is updated exactly per
site for frozen u via the matrix series
Phi(dt, A) = sum dt^{m+1} A^m / (m+1)!, which needs no invertibility of A.
A stochastic-convolution channel chi is co-integrated with the same mode
weights, so u = chi + phi holds to rounding and remainder norms come for
free.

One engine advances every integration.  Members share one white-noise
realisation, streamed slice by slice: only the window of spatial transforms
that the temporal filters read is held, never the whole history.  Each
mollification scale applies its own separable mollifier as a spectral FIR
filter on that window, one block of steps at a time (one real GEMM per
block and scale), and all members advance in lockstep.  `run` is the
one-member case; `epsilon_sweep` runs every scale and its half side by side,
so cross-scale differences are recorded at matching times without storing
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
import sympy
from scipy.linalg import expm

from .kernels import (
    CounterTerms,
    KernelConstants,
    MollifierSpec,
    TruncatedKernel,
    assemble_C,
    build_truncated_kernel,
    kernel_constants,
    matrix_weight,
    mollify_kernel,
    panel_grid,
)
from .noise import (
    Lattice,
    NoiseStream,
    counter_gaussians,
    mollifier_transform,
    sample_white_noise,  # noqa: F401  (unused; perfbench's tests trace it)
    _temporal_weights,
)
from .renorm import CubicPolynomial

__all__ = [
    "QSpec",
    "SystemSpec",
    "RunConfig",
    "RunResult",
    "SweepReport",
    "phi_series",
    "initial_data",
    "spectral_sigma",
    "Stepper",
    "run",
    "counterterms_for",
    "epsilon_sweep",
]


# ---------------------------------------------------------------------------
# system description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QSpec:
    """Slow-channel coupling dv = (u A1 + A2 v) dt and its memory kernel."""

    A1: tuple[float, ...]
    A2: tuple[tuple[float, ...], ...]
    T: float = 0.5

    def __post_init__(self):
        n = len(self.A1)
        if n < 1 or any(len(row) != n for row in self.A2) \
                or len(self.A2) != n:
            raise ValueError("A1 must be a length-n vector and A2 an n x n "
                             "matrix")

    @property
    def n(self) -> int:
        return len(self.A1)

    def weight(self, channel: int = 0) -> Callable:
        return matrix_weight(list(self.A1),
                             [list(r) for r in self.A2], channel, self.T)

    def l1_norm(self) -> float:
        """max_i int_0^{2T} |Q_i(s)| ds for the tapered memory kernel."""
        g = panel_grid(list(np.linspace(0.0, 2 * self.T, 129)), 6)
        best = 0.0
        for i in range(self.n):
            q = np.abs(np.asarray(self.weight(i)(g.nodes), dtype=float))
            best = max(best, float(np.sum(g.weights * q)))
        return best


@dataclass(frozen=True)
class SystemSpec:
    """What to integrate: dimension, nonlinearity, coupling, counterterms."""

    d: int
    F: CubicPolynomial
    Q: QSpec
    renorm: Optional[CounterTerms] = None
    formulation: str = "direct"

    def __post_init__(self):
        if self.formulation not in ("direct", "remainder"):
            raise ValueError("formulation must be 'direct' or 'remainder'")
        if self.F.n_channels != self.Q.n:
            raise ValueError("nonlinearity channels != coupling channels")
        if self.d == 3 and self.renorm is not None:
            bad = [i for i in range(1, self.Q.n + 1)
                   if sympy.simplify(self.F.gamma2(i)) != 0]
            if bad:
                raise ValueError(
                    "d = 3 with renormalisation requires vanishing u^2 v_i "
                    "coefficients; nonzero in channels %s" % bad)


@dataclass(frozen=True)
class RunConfig:
    n_space: int
    dt: float
    t_end: float
    eps: float
    seed: int
    cutoff: float = 1e3
    eta: float = -0.6
    gamma: float = 1.5
    noise_amplitude: float = 1.0
    u0: Optional[Callable] = None
    v0: Optional[Callable] = None
    record_every: int = 10
    snapshot_times: tuple[float, ...] = ()

    def validate(self, d: int, n_v: int = 1) -> None:
        # a nan passes every comparison below (and turns the cutoff guard
        # off); an infinite t_end has no step count
        for name in ("dt", "t_end", "eps", "cutoff", "eta", "gamma",
                     "noise_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r} must be "
                                 "finite")
        if self.cutoff <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise ValueError("cutoff, dt, and t_end must be positive")
        if self.n_space < 2:      # Lattice's rule, before the guard divides
            raise ValueError(f"n_space = {self.n_space}: degenerate lattice")
        if self.eps < 2.0 / self.n_space:
            raise ValueError("eps=%g below the resolution guard 2*dx=%g"
                             % (self.eps, 2.0 / self.n_space))
        if self.eta <= -2.0 / 3.0:
            raise ValueError("initial-data regularity eta must exceed -2/3")
        if self.gamma <= 1.0:
            raise ValueError("slow-channel regularity gamma must exceed 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        # the Philox keys seed, seed + 1 and seed + 1 + 7919 i for the n_v
        # slow channels i (see initial_data) must all fit in uint64
        if not 0 <= self.seed < 2 ** 64 - 1 - 7919 * n_v:
            raise ValueError(f"seed {self.seed} outside [0, 2^64 - 1 - 7919 "
                             f"n_v) for n_v = {n_v}")
        if not all(0.0 <= t <= self.t_end for t in self.snapshot_times):
            raise ValueError(f"snapshot times {self.snapshot_times} outside "
                             f"[0, t_end = {self.t_end:g}]")
        ts = sorted(set(self.snapshot_times))
        for a, b in zip(ts, ts[1:]):
            if round(a / self.dt) == round(b / self.dt):
                raise ValueError(f"snapshot times {a:g} and {b:g} round to "
                                 f"the same step at dt = {self.dt:g}")


@dataclass
class RunResult:
    times: np.ndarray
    norms: dict
    snapshots: dict
    termination: str
    t_star: Optional[float]
    manifest: dict


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def phi_series(dt: float, A: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """Phi(dt, A) = sum_{m>=0} dt^{m+1} A^m / (m+1)!  (works for singular A)."""
    A = np.asarray(A, dtype=float)
    term = dt * np.eye(A.shape[0])
    out = term.copy()
    for m in range(1, 200):
        term = term @ (dt * A) / (m + 1)
        out += term
        if np.max(np.abs(term)) <= tol * max(np.max(np.abs(out)), 1e-300):
            break
    return out


def spectral_sigma(d: int, n_space: int, exponent: float) -> np.ndarray:
    """(1+|k|)^{exponent/2} on the rfftn frequency lattice."""
    mag = Lattice(d=d, n_space=n_space, n_time=1, t_end=1.0).k_magnitudes()
    return (1.0 + mag) ** (exponent / 2.0)


def _random_field(d: int, n_space: int, seed: int, exponent: float
                  ) -> np.ndarray:
    """Random Fourier series with coefficient variance (1+|k|)^exponent."""
    w = counter_gaussians(seed, 0, n_space ** d).reshape((n_space,) * d)
    sig = spectral_sigma(d, n_space, exponent)
    spec = np.fft.rfftn(w) * sig * n_space ** (d / 2.0)
    return np.fft.irfftn(spec, s=(n_space,) * d, axes=tuple(range(d)))


def initial_data(d: int, n_space: int, seed: int, eta: float = -0.6,
                 gamma: float = 1.5, n_v: int = 1,
                 u0: Optional[Callable] = None,
                 v0: Optional[Callable] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Initial fields: prescribed-decay random Fourier series or explicit.

    ``RunConfig.validate`` checks eta > -2/3 and gamma > 1 beforehand.
    """
    xs = np.arange(n_space) / n_space
    mesh = np.meshgrid(*([xs] * d), indexing="ij")
    if u0 is not None:
        u = np.asarray(u0(*mesh), dtype=float)
    else:
        u = _random_field(d, n_space, seed, -d - 2 * eta)
    v = np.empty((n_v,) + (n_space,) * d)
    for i in range(n_v):
        if v0 is not None:
            v[i] = np.asarray(v0(*mesh), dtype=float)[i] \
                if n_v > 1 else np.asarray(v0(*mesh), dtype=float)
        else:
            v[i] = _random_field(d, n_space, seed + 7919 * (i + 1),
                                 -d - 2 * gamma)
    return u, v


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class Stepper:
    """Precomputed weights for one (system, grid, dt) combination.

    The renormalised drift F + c0 + c1 u + sum_i c2_i v_i is held as float
    coefficients per power of u, read once from the polynomial terms of F
    with the counterterms folded in (c0 and c2_i into the u^0 coefficient,
    c1 into the u^1 one); ``nonlinearity`` evaluates it from that table.
    """

    def __init__(self, spec: SystemSpec, n_space: int, dt: float):
        self.spec = spec
        self.n_space = n_space
        self.dt = dt
        lat = Lattice(d=spec.d, n_space=n_space, n_time=1, t_end=dt)
        self.decay, self.gain = lat._heat_weights()
        self.dealias = np.ones_like(self.decay)
        for a in lat._k_mesh():
            self.dealias *= (np.abs(a) <= n_space / 3.0)
        self.expA = expm(dt * np.asarray(spec.Q.A2, dtype=float))
        self.phiA1 = phi_series(dt, np.asarray(spec.Q.A2, dtype=float)) \
            @ np.asarray(spec.Q.A1, dtype=float)
        # self._a[p] lists the nonzero terms (coefficient, v-channel
        # factors) of the u^p coefficient, e.g. (2.0, (0, 0, 1)) = 2 v1^2 v2
        a: list[dict] = [{} for _ in range(4)]
        for (p, *q), c in spec.F.terms:
            a[p][tuple(q)] = float(c)
        if spec.renorm is not None:
            zero = (0,) * spec.Q.n
            a[0][zero] = a[0].get(zero, 0.0) + float(spec.renorm.C0)
            a[1][zero] = a[1].get(zero, 0.0) + float(spec.renorm.C1_sys)
            for i, c in enumerate(spec.renorm.C2_sys):
                e = tuple(int(j == i) for j in range(spec.Q.n))
                a[0][e] = a[0].get(e, 0.0) + float(c)
        self._a = [[(c, sum(((i,) * k for i, k in enumerate(q)), ()))
                    for q, c in ap.items() if c] for ap in a]
        self.ax = tuple(range(0, spec.d))

    def nonlinearity(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """F(u, v) plus counterterms in Horner form in u, by products only:
        ((a3 u + a2(v)) u + a1(v)) u + a0(v)."""
        out = None
        for ap in reversed(self._a):
            if out is not None:
                out = out * u
            for c, factors in ap:
                term = c
                for i in factors:
                    term = term * v[i]
                out = term if out is None else out + term
        if out is None:
            return np.zeros_like(u)
        return out if np.shape(out) == u.shape else np.full_like(u, out)

    def step_u(self, u_hat: np.ndarray, nonlin: np.ndarray,
               forcing_hat: Optional[np.ndarray]) -> np.ndarray:
        n_hat = np.fft.rfftn(nonlin, axes=self.ax) * self.dealias
        if forcing_hat is not None:
            n_hat = n_hat + forcing_hat
        return self.decay * u_hat + self.gain * n_hat

    def step_v(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.tensordot(self.expA, v, axes=(1, 0))
        return out + self.phiA1.reshape((-1,) + (1,) * self.spec.d) * u

    def to_real(self, u_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(u_hat, s=(self.n_space,) * self.spec.d,
                             axes=self.ax)


def _norm_pair(x: np.ndarray) -> tuple[float, float]:
    return float(np.max(np.abs(x))), float(math.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------------------
# lockstep engine
# ---------------------------------------------------------------------------

# steps of one temporal-filter block: the forcing of B steps is one GEMM per
# scale, reading the held noise window once instead of B times
_FIR_BLOCK = 8


class _FIRMollifier:
    """Per-scale spectral mollification of a shared raw noise stream.

    The temporal half of the mollifier is a FIR over noise slices, applied
    to a block of at most ``_FIR_BLOCK`` steps at once: one banded weight
    matrix, clipped at slice 0 and at the lattice end, times the block's
    slice window viewed as real, then the spatial profile transform.
    """

    def __init__(self, lat: Lattice, eps: float, spec: MollifierSpec):
        self.wt = _temporal_weights(spec, eps, lat.dt)
        self.half = (len(self.wt) - 1) // 2
        self.rho_hat = mollifier_transform(spec, eps, lat.k_magnitudes())
        self.n_time = lat.n_time
        # row r weights slices i - half + r .. i + half + r of a block at i
        self._band = np.zeros((_FIR_BLOCK, _FIR_BLOCK + 2 * self.half))
        for r in range(_FIR_BLOCK):
            self._band[r, r:r + len(self.wt)] = self.wt

    def slice_hat(self, raw_hat: np.ndarray, i: int, b: int,
                  first: int = 0) -> np.ndarray:
        """Spectral forcing of steps i .. i + b - 1 (b <= ``_FIR_BLOCK``),
        shape (b,) + raw_hat.shape[1:].

        ``raw_hat[k]`` is the spatial rfftn of slice first + k; it must hold
        slices max(0, i - half) .. min(n_time, i + b + half) - 1.
        """
        lo = max(0, i - self.half)
        hi = min(self.n_time, i + b + self.half)
        band = self._band[:b, lo - i + self.half:hi - i + self.half]
        window = raw_hat[lo - first:hi - first]
        out = (band @ window.view(float).reshape(hi - lo, -1)).view(complex)
        out = out.reshape((b,) + window.shape[1:])
        out *= self.rho_hat
        return out


def _noise_forcing(d: int, config: RunConfig, steps: int,
                   scales: Sequence[float]
                   ) -> tuple[Optional[NoiseStream], Optional[Callable]]:
    """One white-noise realisation, mollified per scale as a spectral FIR.

    Returns the noise stream (read its checksum after the run) and
    forcing(i), mapping each scale to the amplitude-scaled spectral forcing
    of step i; (None, None) without noise.  Steps go in blocks of
    ``_FIR_BLOCK`` on a fixed grid: the first step of a block computes the
    block's forcing for every scale.
    """
    if config.noise_amplitude == 0.0:
        return None, None
    mspec = MollifierSpec(d)
    # run past the last step by the widest temporal filter's half-width
    pad = int(math.ceil(mspec.t_halfwidth * max(scales) ** 2 / config.dt)) + 2
    lat = Lattice(d=d, n_space=config.n_space, n_time=steps + pad,
                  t_end=(steps + pad) * config.dt)
    firs = {e: _FIRMollifier(lat, e, mspec) for e in scales}
    half = max(fir.half for fir in firs.values())
    stream = NoiseStream(lat, config.seed, 2 * half + _FIR_BLOCK)
    amp = config.noise_amplitude
    held: dict = {}          # scale -> forcing of steps start .. start + b - 1
    start = 0

    def forcing(i: int) -> dict:
        nonlocal start
        if not held or not start <= i < start + _FIR_BLOCK:
            held.clear()     # the old block goes before the next is built
            start = i - i % _FIR_BLOCK
            b = min(_FIR_BLOCK, steps - start)
            lo = max(0, start - half)
            window = stream.window(lo, min(lat.n_time, start + b + half))
            for e, fir in firs.items():
                held[e] = fir.slice_hat(window, start, b, lo)
                held[e] *= amp
        return {e: block[i - start] for e, block in held.items()}

    return stream, forcing


class _Member:
    """One integration of the lockstep engine: its stepper and its state.

    w_hat evolves u (direct formulation) or phi = u - chi (remainder);
    chi_hat co-integrates chi with the same mode weights in both.  State
    arrays are replaced at every step, never written in place.
    """

    def __init__(self, st: Stepper, eps: float, u0: np.ndarray,
                 v0: np.ndarray):
        self.st, self.eps = st, eps
        self.remainder = st.spec.formulation == "remainder"
        self.u, self.v = u0.copy(), v0.copy()
        self.w_hat = np.fft.rfftn(u0, axes=st.ax)
        self.chi_hat = np.zeros_like(self.w_hat)
        self._chi = None

    def chi(self) -> np.ndarray:
        """chi in real space, transformed at most once per step."""
        if self._chi is None:
            self._chi = self.st.to_real(self.chi_hat)
        return self._chi

    def failure(self, cutoff: float) -> Optional[str]:
        if not np.all(np.isfinite(self.u)):
            return "nonfinite"
        return "cutoff-hit" if float(np.max(np.abs(self.u))) > cutoff \
            else None

    def step(self, f_hat: Optional[np.ndarray]) -> None:
        st = self.st
        nonlin = st.nonlinearity(self.u, self.v)
        self.w_hat = st.step_u(self.w_hat, nonlin,
                               None if self.remainder else f_hat)
        if f_hat is not None:
            self.chi_hat = st.decay * self.chi_hat + st.gain * f_hat
        self.v = st.step_v(self.v, self.u)
        self._chi = None
        w = st.to_real(self.w_hat)
        self.u = self.chi() + w if self.remainder else w


def _lockstep(members: dict, steps: int, cutoff: float,
              forcing: Optional[Callable], observe: Callable
              ) -> Optional[tuple]:
    """Advance all members through ``steps`` steps on common forcing.

    ``observe(i)`` sees step i once every member has passed the finiteness
    and cutoff check; returns (key, i, reason) for the first that fails.
    """
    for i in range(steps + 1):
        for key, m in members.items():
            reason = m.failure(cutoff)
            if reason:
                return key, i, reason
        observe(i)
        if i == steps:
            return None
        f_hats = forcing(i) if forcing else {}
        for m in members.values():
            m.step(f_hats.get(m.eps))
        del f_hats      # frees a spent forcing block before the next is built


def run(config: RunConfig, spec: SystemSpec) -> RunResult:
    """Integrate to t_end or termination; returns norms, snapshots, manifest.

    The one-member case of the lockstep engine: chi (the mollified
    stochastic convolution with zero initial data) is co-integrated
    spectrally, so phi = u - chi is available in both formulations and the
    decomposition is exact by construction.
    """
    config.validate(spec.d, spec.Q.n)
    steps = int(round(config.t_end / config.dt))
    stream, forcing = _noise_forcing(spec.d, config, steps, (config.eps,))
    u0, v0 = initial_data(spec.d, config.n_space, config.seed + 1,
                          eta=config.eta, gamma=config.gamma, n_v=spec.Q.n,
                          u0=config.u0, v0=config.v0)
    m = _Member(Stepper(spec, config.n_space, config.dt), config.eps, u0, v0)

    snap_idx = {int(round(t / config.dt)): t for t in config.snapshot_times}
    times, snapshots = [], {}
    series = {k: [] for k in ("sup_u", "l2_u", "sup_v", "l2_v", "sup_phi",
                              "l2_phi")}

    def observe(i: int) -> None:
        if i % config.record_every and i != steps and i not in snap_idx:
            return
        chi = m.chi()
        phi = m.u - chi
        times.append(i * config.dt)
        vals = _norm_pair(m.u) + _norm_pair(m.v) + _norm_pair(phi)
        for k, val in zip(series, vals):
            series[k].append(val)
        if i in snap_idx:
            snapshots[snap_idx[i]] = {"u": m.u, "v": m.v, "phi": phi,
                                      "chi": chi}

    failed = _lockstep({0: m}, steps, config.cutoff, forcing, observe)
    termination, t_star = "completed", None
    if failed:
        _, i, termination = failed
        t_star = i * config.dt

    manifest = {
        "d": spec.d, "formulation": spec.formulation,
        "F": spec.F.text(), "A1": list(spec.Q.A1),
        "A2": [list(r) for r in spec.Q.A2], "taper_T": spec.Q.T,
        "renorm": None if spec.renorm is None else {
            "C0": float(spec.renorm.C0), "C1": float(spec.renorm.C1_sys),
            "C2": [float(c) for c in spec.renorm.C2_sys],
            "C_eps": float(spec.renorm.C_eps)},
        "n_space": config.n_space, "dt": config.dt, "t_end": config.t_end,
        "eps": config.eps, "seed": config.seed, "cutoff": config.cutoff,
        "eta": config.eta, "gamma": config.gamma,
        "noise_amplitude": config.noise_amplitude,
        "noise_checksum": stream.checksum() if stream else None,
    }
    return RunResult(times=np.asarray(times),
                     norms={k: np.asarray(val) for k, val in series.items()},
                     snapshots=snapshots, termination=termination,
                     t_star=t_star, manifest=manifest)


# ---------------------------------------------------------------------------
# counterterms per scale
# ---------------------------------------------------------------------------

def counterterms_for(spec_F: CubicPolynomial, d: int, eps: float,
                     kernel: Optional[TruncatedKernel] = None
                     ) -> CounterTerms:
    """Scale-dependent counterterms for a nonlinearity.

    In two dimensions only C1 enters, so the correlation-function pipeline
    is skipped entirely.
    """
    if kernel is None:
        kernel = build_truncated_kernel(d)
    if d == 3:
        consts = kernel_constants(d, eps, kernel=kernel, full=True)
    else:
        keps = mollify_kernel(kernel, eps)
        consts = KernelConstants(d=d, eps=eps, C1=keps.squared_integral(),
                                 Q1_0=0.0, Q2_0=0.0)
    beta1 = float(spec_F.beta1)
    gamma1 = float(spec_F.gamma1)
    gamma2 = tuple(float(spec_F.gamma2(i))
                   for i in range(1, spec_F.n_channels + 1))
    return assemble_C(beta1, gamma1, gamma2, consts)


# ---------------------------------------------------------------------------
# lockstep epsilon sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    eps: list
    t_star: float
    D: dict
    contraction: dict
    noise_checksum: Optional[str]
    constants: dict
    manifest: dict


def epsilon_sweep(spec: SystemSpec, config: RunConfig,
                  eps_list: Sequence[float], t_star: float = 0.1,
                  modes: Sequence[str] = ("renormalised", "unrenormalised"),
                  ) -> SweepReport:
    """Common-noise sweep: runs at every scale and its half, in lockstep.

    Reports D(eps) = ||x^eps - x^{eps/2}|| (sup and L2) at t_star for the
    channels u, v, phi, for renormalised and unrenormalised dynamics, plus
    the discrete slow-channel contraction data.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if not eps_list:
        raise ValueError("empty scale list")
    scales = sorted({e for e in eps_list} | {e / 2 for e in eps_list},
                    reverse=True)
    d = spec.d
    replace(config, eps=min(scales)).validate(d, spec.Q.n)
    steps = int(round(t_star / config.dt))
    stream, forcing = _noise_forcing(d, config, steps, scales)

    constants = {}
    if "renormalised" in modes:
        K = build_truncated_kernel(d)
        constants = {e: counterterms_for(spec.F, d, e, kernel=K)
                     for e in scales}
    u0, v0 = initial_data(d, config.n_space, config.seed + 1, eta=config.eta,
                          gamma=config.gamma, n_v=spec.Q.n,
                          u0=config.u0, v0=config.v0)
    members = {}
    for mode in modes:
        for e in scales:
            renorm = constants[e] if mode == "renormalised" else None
            st = Stepper(replace(spec, renorm=renorm, formulation="direct"),
                         config.n_space, config.dt)
            members[(mode, e)] = _Member(st, e, u0, v0)

    # pairwise difference tracking at matching record times
    pairs = [(e, e / 2) for e in eps_list]
    track = {mode: {p: {"du": [], "dv": [], "dphi": [], "t": []}
                    for p in pairs} for mode in modes}

    def observe(i: int) -> None:
        if i % config.record_every and i != steps:
            return
        for mode in modes:
            for (ea, eb) in pairs:
                sa, sb = members[(mode, ea)], members[(mode, eb)]
                rec = track[mode][(ea, eb)]
                rec["t"].append(i * config.dt)
                rec["du"].append(_norm_pair(sa.u - sb.u))
                rec["dv"].append(_norm_pair(sa.v - sb.v))
                rec["dphi"].append(_norm_pair(
                    (sa.u - sa.chi()) - (sb.u - sb.chi())))

    failed = _lockstep(members, steps, config.cutoff, forcing, observe)
    if failed:
        (mode, e), i, _ = failed
        raise RuntimeError("sweep run (%s, eps=%g) left the stable regime at "
                           "t=%g" % (mode, e, i * config.dt))

    q_l1 = spec.Q.l1_norm()
    D = {mode: {"u": [], "v": [], "phi": []} for mode in modes}
    contraction = {"q_l1": q_l1, "pairs": {}}
    for mode in modes:
        for p in pairs:
            rec = track[mode][p]
            D[mode]["u"].append(rec["du"][-1])
            D[mode]["v"].append(rec["dv"][-1])
            D[mode]["phi"].append(rec["dphi"][-1])
            du_l2 = np.asarray([x[1] for x in rec["du"]])
            dv_l2 = np.asarray([x[1] for x in rec["dv"]])
            run_sup = np.maximum.accumulate(du_l2)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(run_sup > 0, dv_l2 / np.maximum(
                    run_sup, 1e-300), 0.0)
            contraction["pairs"][(mode,) + p] = {
                "t": np.asarray(rec["t"]),
                "dv_l2": dv_l2, "du_running_sup": run_sup,
                "max_ratio": float(np.max(ratio)),
            }
    manifest = {
        "eps_list": eps_list, "scales": scales, "t_star": t_star,
        "seed": config.seed, "n_space": config.n_space, "dt": config.dt,
        "F": spec.F.text(), "modes": list(modes),
        "constants": {e: {"C0": float(c.C0), "C1": float(c.C1_sys),
                          "C2": [float(x) for x in c.C2_sys],
                          "C_eps": float(c.C_eps)}
                      for e, c in constants.items()},
    }
    return SweepReport(eps=eps_list, t_star=t_star, D=D,
                       contraction=contraction,
                       noise_checksum=stream.checksum() if stream else None,
                       constants=constants,
                       manifest=manifest)

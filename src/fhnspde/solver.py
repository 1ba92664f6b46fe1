"""Time integration of the renormalised fast-slow systems.

The fast channel is advanced by a first-order exponential (ETD) integrator in
Fourier space: the heat part is exact per mode, the nonlinearity enters
through the phi1 weight, and cubic terms are evaluated pseudo-spectrally with
2/3 dealiasing; the FFT pair, heat weights and mask are `noise.Lattice`'s.
F's exact coefficient table and its counterterms are read once into float
coefficients and evaluated in Horner form in u by array products only; the
solver never loads sympy.  The slow channel is updated exactly per site for
frozen u via the matrix series
Phi(dt, A) = sum dt^{m+1} A^m / (m+1)!, which needs no invertibility of A.
A stochastic-convolution channel chi is co-integrated with the same mode
weights, once per mollification scale for all the members at that scale, so
u = chi + phi holds to rounding and remainder norms come for free.

One engine advances every integration.  Members share one white-noise
realisation, streamed slice by slice: only the window of spatial transforms
that the temporal filters read is held, never the whole history.  Each
mollification scale applies its own separable mollifier as the spectral FIR
filter of `noise` on that window, one block of steps at a time (one real
GEMM per block and scale), and all members advance in lockstep.  `run` is the
one-member case; `epsilon_sweep` runs every scale and its half side by side,
so cross-scale differences are recorded at matching times without storing
trajectories.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (
    CounterTerms,
    MollifierSpec,
    TruncatedKernel,
    assemble_C,
    build_truncated_kernel,
    counterterm_constants,
    matrix_weight,
    panel_grid,
    phi_series,
)
from .noise import (
    Lattice,
    NoiseStream,
    counter_gaussians,
    sample_white_noise,  # noqa: F401  (unused; perfbench's tests trace it)
    _FIR_BLOCK,
    _FIRMollifier,
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
        if self.renorm is not None:
            self.check_renormalisable()

    def check_renormalisable(self) -> None:
        """Raise unless the counterterms c0 + c1 u + c2.v renormalise F: in
        d = 3 every u^2 v_i coefficient must vanish (exactly, on F's table).
        Cheap, so callers check before computing any constant."""
        bad = [i for i in range(1, self.Q.n + 1) if self.F.gamma2(i) != 0]
        if self.d == 3 and bad:
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
        if d not in (2, 3):
            raise ValueError(f"spatial dimension d = {d} must be 2 or 3")
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

def _random_field(lat: Lattice, seed: int, exponent: float) -> np.ndarray:
    """Random Fourier series with coefficient variance (1+|k|)^exponent."""
    n, d = lat.n_space, lat.d
    w = counter_gaussians(seed, 0, n ** d).reshape((n,) * d)
    sig = (1.0 + lat.k_magnitudes()) ** (exponent / 2.0)
    return lat.irfft(lat.rfft(w) * sig * n ** (d / 2.0))


def initial_data(d: int, n_space: int, seed: int, eta: float = -0.6,
                 gamma: float = 1.5, n_v: int = 1,
                 u0: Optional[Callable] = None,
                 v0: Optional[Callable] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Initial fields: prescribed-decay random Fourier series or explicit.

    ``RunConfig.validate`` checks eta > -2/3 and gamma > 1 beforehand.
    """
    lat = Lattice(d=d, n_space=n_space, n_time=1, t_end=1.0)
    xs = np.arange(n_space) / n_space
    mesh = np.meshgrid(*([xs] * d), indexing="ij")
    if u0 is not None:
        u = np.asarray(u0(*mesh), dtype=float)
    else:
        u = _random_field(lat, seed, -d - 2 * eta)
    v = np.empty((n_v,) + (n_space,) * d)
    if v0 is not None:
        vals = np.asarray(v0(*mesh), dtype=float)
        v[:] = vals[:n_v] if n_v > 1 else vals
    else:
        for i in range(n_v):
            v[i] = _random_field(lat, seed + 7919 * (i + 1), -d - 2 * gamma)
    return u, v


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class Stepper:
    """Precomputed weights for one (system, grid, dt) combination.

    The lattice, heat weights and 2/3 mask depend on the grid and dt alone:
    ``for_spec`` gives a stepper for another system that shares them.
    The renormalised drift F + c0 + c1 u + sum_i c2_i v_i is held as float
    coefficients per power of u, read once from the polynomial terms of F
    with the counterterms folded in (c0 and c2_i into the u^0 coefficient,
    c1 into the u^1 one); ``nonlinearity`` evaluates it from that table.
    """

    def __init__(self, spec: SystemSpec, n_space: int, dt: float):
        self.lat = Lattice(d=spec.d, n_space=n_space, n_time=1, t_end=dt)
        self.decay, self.gain = self.lat.heat_weights()
        self.dealias = self.lat.dealias()
        self._bind(spec)

    def for_spec(self, spec: SystemSpec) -> "Stepper":
        """A stepper for ``spec`` (of the same dimension) on this one's grid
        and dt, sharing its lattice, heat weights and mask."""
        other = copy.copy(self)
        other._bind(spec)
        return other

    def _bind(self, spec: SystemSpec) -> None:
        """The system's own weights: the slow-channel update and the drift
        table."""
        self.spec = spec
        A2 = np.asarray(spec.Q.A2, dtype=float)
        phi = phi_series(self.lat.dt, A2)
        # e^{dt A2} = I + A2 Phi(dt, A2)
        self.expA = np.eye(spec.Q.n) + A2 @ phi
        self.phiA1 = phi @ np.asarray(spec.Q.A1, dtype=float)
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
        n_hat = self.lat.rfft(nonlin)
        n_hat *= self.dealias
        if forcing_hat is not None:
            n_hat += forcing_hat
        return self.decay * u_hat + self.gain * n_hat

    def step_v(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """v_i <- sum_j expA[i, j] v_j + phiA1[i] u, channel by channel."""
        out = np.empty_like(v)
        for i, row in enumerate(self.expA):
            np.multiply(row[0], v[0], out=out[i])
            for j in range(1, row.size):
                out[i] += row[j] * v[j]
            out[i] += self.phiA1[i] * u
        return out

    def to_real(self, u_hat: np.ndarray) -> np.ndarray:
        return self.lat.irfft(u_hat)


def _l2(x: np.ndarray) -> float:
    return math.sqrt(np.mean(np.square(x)))


def _norm_pair(x: np.ndarray) -> tuple[float, float]:
    return float(np.max(np.abs(x))), _l2(x)


# ---------------------------------------------------------------------------
# lockstep engine
# ---------------------------------------------------------------------------

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


class _Chi:
    """The stochastic convolution chi at one scale, co-integrated with the
    heat weights from that scale's forcing once per step and read by every
    member at the scale.  Arrays are replaced, never written in place."""

    def __init__(self, st: Stepper, eps: float):
        self.st, self.eps = st, eps
        self.hat = np.zeros(st.lat.spectral_shape, complex)
        self._real = None

    def step(self, f_hat: Optional[np.ndarray]) -> None:
        if f_hat is not None:
            self.hat = self.st.decay * self.hat + self.st.gain * f_hat
            self._real = None

    def real(self) -> np.ndarray:
        """chi in real space, transformed at most once per step."""
        if self._real is None:
            self._real = self.st.to_real(self.hat)
        return self._real


class _Member:
    """One integration of the lockstep engine: its stepper, its scale's chi
    and its state.

    w_hat evolves u (direct formulation) or phi = u - chi (remainder).
    State arrays are replaced at every step, never written in place, so
    members may start from the same initial arrays.
    """

    def __init__(self, st: Stepper, chi: _Chi, u0: np.ndarray,
                 v0: np.ndarray):
        self.st, self.chi = st, chi
        self.remainder = st.spec.formulation == "remainder"
        self.u, self.v = u0, v0
        self.w_hat = st.lat.rfft(u0)

    def failure(self, cutoff: float) -> Optional[str]:
        # two reductions and no |u| copy: max and min propagate NaN, and an
        # infinity of either sign makes the peak infinite
        peak = max(float(self.u.max()), -float(self.u.min()))
        if not math.isfinite(peak):
            return "nonfinite"
        return "cutoff-hit" if peak > cutoff else None

    def step(self, f_hat: Optional[np.ndarray]) -> None:
        """One step on its scale's forcing, after its chi's step."""
        st = self.st
        nonlin = st.nonlinearity(self.u, self.v)
        self.w_hat = st.step_u(self.w_hat, nonlin,
                               None if self.remainder else f_hat)
        self.v = st.step_v(self.v, self.u)
        w = st.to_real(self.w_hat)
        self.u = self.chi.real() + w if self.remainder else w


def _lockstep(members: dict, steps: int, cutoff: float,
              forcing: Optional[Callable], observe: Callable
              ) -> Optional[tuple]:
    """Advance all members through ``steps`` steps on common forcing.

    Each scale's chi steps once, then every member at that scale reads it.
    ``observe(i)`` sees step i once every member has passed the finiteness
    and cutoff check; returns (key, i, reason) for the first that fails.
    """
    chis = {m.chi.eps: m.chi for m in members.values()}
    for i in range(steps + 1):
        for key, m in members.items():
            reason = m.failure(cutoff)
            if reason:
                return key, i, reason
        observe(i)
        if i == steps:
            return None
        f_hats = forcing(i) if forcing else {}
        for e, chi in chis.items():
            chi.step(f_hats.get(e))
        for m in members.values():
            m.step(f_hats.get(m.chi.eps))
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
    st = Stepper(spec, config.n_space, config.dt)
    m = _Member(st, _Chi(st, config.eps), u0, v0)

    snap_idx = {int(round(t / config.dt)): t for t in config.snapshot_times}
    times, snapshots = [], {}
    series = {k: [] for k in ("sup_u", "l2_u", "sup_v", "l2_v", "sup_phi",
                              "l2_phi")}

    def observe(i: int) -> None:
        if i % config.record_every and i != steps and i not in snap_idx:
            return
        chi = m.chi.real()
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
        "renorm": None if spec.renorm is None else spec.renorm.as_dict(),
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

    Only C1 and, in three dimensions, C2 enter (see
    :func:`counterterm_constants`): no slow-channel kernel is built.
    A ``kernel`` must be built for dimension ``d``.
    """
    if kernel is None:
        kernel = build_truncated_kernel(d)
    elif kernel.d != d:
        raise ValueError(f"kernel is built for d = {kernel.d}, not d = {d}")
    C1, C2 = counterterm_constants(kernel, eps)
    gamma2 = tuple(float(spec_F.gamma2(i))
                   for i in range(1, spec_F.n_channels + 1))
    return assemble_C(float(spec_F.beta1), float(spec_F.gamma1), gamma2,
                      C1, C2)


# ---------------------------------------------------------------------------
# lockstep epsilon sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """``D[mode][channel]``: (sup, L2) of x^eps - x^{eps/2} at t_star per
    scale.  ``contraction``: ``"q_l1"``, the slow-channel kernel's L1 norm,
    and ``"pairs"``, mapping (mode, eps, eps/2) to ``{"max_ratio": r}``."""

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
    channels u, v, phi, for renormalised and unrenormalised dynamics in
    ``spec.formulation``, read from the final states.  At record times only
    the contraction ratio r is kept: the largest ||v^eps - v^{eps/2}||_2
    over the running sup of ||u^eps - u^{eps/2}||_2.
    """
    eps_list = sorted({float(e) for e in eps_list}, reverse=True)
    if not eps_list:
        raise ValueError("empty scale list")
    if not (math.isfinite(t_star) and t_star > 0):
        raise ValueError(f"t_star = {t_star!r} must be finite and positive")
    modes = tuple(modes)
    if not modes or not set(modes) <= {"renormalised", "unrenormalised"}:
        raise ValueError(f"modes {modes!r}: give one or both of "
                         "'renormalised' and 'unrenormalised'")
    if "renormalised" in modes:
        spec.check_renormalisable()
    scales = sorted({e for e in eps_list} | {e / 2 for e in eps_list},
                    reverse=True)
    d = spec.d
    replace(config, eps=min(scales)).validate(d, spec.Q.n)
    steps = int(round(t_star / config.dt))
    # the kernel's set-up transients come and go before the noise window
    constants = {}
    if "renormalised" in modes:
        K = build_truncated_kernel(d)
        constants = {e: counterterms_for(spec.F, d, e, kernel=K)
                     for e in scales}
    stream, forcing = _noise_forcing(d, config, steps, scales)
    u0, v0 = initial_data(d, config.n_space, config.seed + 1, eta=config.eta,
                          gamma=config.gamma, n_v=spec.Q.n,
                          u0=config.u0, v0=config.v0)
    # one set of grid weights and one chi per scale, shared by the members
    st = Stepper(spec, config.n_space, config.dt)
    chis = {e: _Chi(st, e) for e in scales}
    members = {}
    for mode in modes:
        for e in scales:
            renorm = constants[e] if mode == "renormalised" else None
            members[(mode, e)] = _Member(
                st.for_spec(replace(spec, renorm=renorm)), chis[e], u0, v0)

    pairs = {(mode, e, e / 2): (members[(mode, e)], members[(mode, e / 2)])
             for mode in modes for e in eps_list}
    du_sup = dict.fromkeys(pairs, 0.0)
    max_ratio = dict.fromkeys(pairs, 0.0)

    def observe(i: int) -> None:
        if i % config.record_every and i != steps:
            return
        for key, (sa, sb) in pairs.items():
            du_sup[key] = max(du_sup[key], _l2(sa.u - sb.u))
            if du_sup[key] > 0:
                max_ratio[key] = max(max_ratio[key],
                                     _l2(sa.v - sb.v) / du_sup[key])

    failed = _lockstep(members, steps, config.cutoff, forcing, observe)
    if failed:
        (mode, e), i, _ = failed
        raise RuntimeError("sweep run (%s, eps=%g) left the stable regime at "
                           "t=%g" % (mode, e, i * config.dt))

    D = {mode: {"u": [], "v": [], "phi": []} for mode in modes}
    for (mode, _, _), (sa, sb) in pairs.items():
        D[mode]["u"].append(_norm_pair(sa.u - sb.u))
        D[mode]["v"].append(_norm_pair(sa.v - sb.v))
        D[mode]["phi"].append(_norm_pair(
            (sa.u - sa.chi.real()) - (sb.u - sb.chi.real())))
    contraction = {"q_l1": spec.Q.l1_norm(), "pairs": {
        k: {"max_ratio": r} for k, r in max_ratio.items()}}
    manifest = {
        "eps_list": eps_list, "scales": scales, "t_star": t_star,
        "seed": config.seed, "n_space": config.n_space, "dt": config.dt,
        "F": spec.F.text(), "formulation": spec.formulation,
        "modes": list(modes),
        "constants": {e: c.as_dict() for e, c in constants.items()},
    }
    return SweepReport(eps=eps_list, t_star=t_star, D=D,
                       contraction=contraction,
                       noise_checksum=stream.checksum() if stream else None,
                       constants=constants,
                       manifest=manifest)

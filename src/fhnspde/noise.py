"""Reproducible lattice noise and its mollification.

Space-time white noise lives on a uniform lattice over [0, T_end] x the unit
torus; `Lattice` holds the package's only spatial FFT pair, its wavenumbers,
heat step and dealias mask.  Every random number is a pure function of
(seed, global cell index) through a counter-based generator, so members,
slices and re-runs are bit-for-bit reproducible regardless of traversal or
chunking; `NoiseStream` draws the slices on every usable core, holding a
window, and hashes them in time order.

Mollification has one path, `_FIRMollifier`, in two factors mirroring the
separable mollifier: a FIR over the time slices of the spatial transforms,
then Fourier multiplication by the radial profile transform (which on the
torus is automatically the periodised convolution).  The solver's engine
runs it on a streamed window, `mollify_noise` on a whole field.  The
stochastic convolution chi is the solver's step, the heat semigroup's
exact per-mode Ornstein-Uhlenbeck recursion; the kernel-based chi = K * xi
that acceptance 7 certifies is test reference code (``tests/reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .kernels import _F_BLOCK, MollifierSpec, panel_grid

__all__ = [
    "Lattice",
    "NoiseField",
    "NoiseStream",
    "Field",
    "ResolutionError",
    "counter_gaussians",
    "sample_white_noise",
    "mollify_noise",
    "mollifier_transform",
    "radial_fourier",
    "save_field",
]

GENERATOR_ID = "philox4x64-boxmuller-v1"
FORMAT_VERSION = 1


class ResolutionError(ValueError):
    """Mollification scale below what the lattice can carry."""


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Uniform grid: n_time slices of a d-dimensional n_space^d torus.

    Time slice i covers [i*dt, (i+1)*dt); spatial site j sits at j*dx on the
    unit torus.  Spectral arrays live on the rfftn modes of the last d axes.
    """

    d: int
    n_space: int
    n_time: int
    t_end: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("spatial dimension must be 2 or 3")
        if self.n_space < 2 or self.n_time < 1 or self.t_end <= 0:
            raise ValueError("degenerate lattice")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_time

    @property
    def dx(self) -> float:
        return 1.0 / self.n_space

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_time,) + (self.n_space,) * self.d

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """One slice's rfftn half-spectrum: the last axis keeps
        n_space // 2 + 1 modes."""
        return (self.n_space,) * (self.d - 1) + (self.n_space // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.dt * self.dx ** self.d

    def _k_mesh(self) -> list[np.ndarray]:
        """Per-axis integer wavenumbers on the rfftn frequency lattice."""
        axes = [np.fft.fftfreq(self.n_space, d=self.dx)
                for _ in range(self.d - 1)]
        axes.append(np.fft.rfftfreq(self.n_space, d=self.dx))
        return np.meshgrid(*axes, indexing="ij")

    def k_magnitudes(self) -> np.ndarray:
        """|k| on the rfftn frequency lattice (integer wavenumbers)."""
        return np.sqrt(sum(np.square(a) for a in self._k_mesh()))

    def heat_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """One exact heat step per mode: decay e^{-lam dt}, gain
        (1 - e^{-lam dt}) / lam, with rates lam = (2 pi |k|)^2."""
        lam = (2.0 * math.pi) ** 2 * sum(np.square(a)
                                         for a in self._k_mesh())
        decay = np.exp(-lam * self.dt)
        with np.errstate(invalid="ignore"):
            gain = np.where(lam > 0, -np.expm1(-lam * self.dt) / np.where(
                lam > 0, lam, 1.0), self.dt)
        return decay, gain

    def dealias(self) -> np.ndarray:
        """The 2/3 rule: 1.0 where every |k_i| <= n_space / 3, else 0.0."""
        return np.all([np.abs(a) <= self.n_space / 3.0
                       for a in self._k_mesh()], axis=0).astype(float)

    def rfft(self, x: np.ndarray, out=None) -> np.ndarray:
        """rfftn over the last d axes (into ``out`` if given) by its own
        calls: rfft on the last axis, then fft in place back to the first."""
        out = np.fft.rfft(x, axis=-1, out=out)
        for a in range(-2, -self.d - 1, -1):
            np.fft.fft(out, axis=a, out=out)
        return out

    def irfft(self, x_hat: np.ndarray) -> np.ndarray:
        """irfftn over the last d axes by its own calls; x_hat is not
        written."""
        for a in range(-self.d, -1):
            x_hat = np.fft.ifft(x_hat, axis=a)
        return np.fft.irfft(x_hat, self.n_space, axis=-1)


@dataclass(frozen=True)
class NoiseField:
    """White-noise densities: iid N(0, 1/cell_volume) per cell."""

    lattice: Lattice
    values: np.ndarray
    seed: int
    generator_id: ClassVar[str] = GENERATOR_ID

    def checksum(self) -> str:
        return _checksum(hashlib.sha256(np.ascontiguousarray(
            self.values, dtype="<f8")), self.lattice, self.seed)


@dataclass(frozen=True)
class Field:
    """A deterministic function of some NoiseField on the same lattice."""

    lattice: Lattice
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _raw_words(seed: int, start: int, count: int) -> np.ndarray:
    # Philox counts in blocks of four 64-bit words; align to the block
    # containing `start` so the word at global index m never depends on how
    # the request was chunked.
    from numpy.random import Philox     # loaded by the first draw only
    bitgen = Philox(key=np.uint64(seed))
    block, offset = divmod(start, 4)
    if block:
        bitgen.advance(block)
    return bitgen.random_raw(offset + count)[offset:]


def counter_gaussians(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals indexed by (seed, position), order-independent.

    Value i consumes raw words 2i and 2i+1 through a Box-Muller map, so any
    contiguous range can be regenerated in isolation.
    """
    w = _raw_words(seed, 2 * start, 2 * count)
    w >>= np.uint64(11)
    w[0::2] += np.uint64(1)
    # sqrt(-2 log u1) cos(2 pi u2) step by step in place, bit for bit
    r = np.multiply(w[0::2], 2.0 ** -53)                           # (0, 1]
    theta = np.multiply(w[1::2], 2.0 ** -53)                       # [0, 1)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    np.cos(theta, out=theta)
    r *= theta
    return r


def _run_length(lattice: Lattice) -> int:
    """Slices per run of the noise draw: about ``_F_BLOCK`` raw Philox
    words, two per value, and at least one slice."""
    return max(1, _F_BLOCK // (2 * lattice.n_space ** lattice.d))


def _white_run(lattice: Lattice, seed: int, i: int, count: int
               ) -> np.ndarray:
    """Time slices i .. i + count - 1 of the white noise, by one draw: the
    same values as one draw per slice."""
    size = lattice.n_space ** lattice.d
    xi = counter_gaussians(seed, i * size, count * size)
    xi *= 1.0 / math.sqrt(lattice.cell_volume)
    return xi.reshape((count,) + lattice.shape[1:])


def sample_white_noise(lattice: Lattice, seed: int) -> NoiseField:
    """Cellwise iid N(0, 1/(dt dx^d)), keyed on the global cell index and
    drawn in runs of time slices into one array."""
    vals, per = np.empty(lattice.shape), _run_length(lattice)
    for i in range(0, lattice.n_time, per):
        vals[i:i + per] = _white_run(lattice, seed, i,
                                     min(per, lattice.n_time - i))
    return NoiseField(lattice=lattice, values=vals, seed=seed)


def _checksum(sha, lattice: Lattice, seed: int) -> str:
    """The noise checksum: ``sha`` has hashed the values as little-endian
    float64 in time order; (shape, seed, generator) follow."""
    sha.update(json.dumps([lattice.shape, seed, GENERATOR_ID]).encode())
    return sha.hexdigest()


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class NoiseStream:
    """The realisation of `sample_white_noise`, drawn and hashed slice by
    slice.  ``window(lo, hi)`` is the spatial rfftn of slices lo .. hi - 1,
    contiguous and in time order, for windows that only move forward and
    span at most ``width`` slices.  The buffer holds width + width // 8
    slices, so held slices move once every width // 8 steps.  The slices
    are drawn on every usable core, and hashed in time order."""

    def __init__(self, lattice: Lattice, seed: int, width: int):
        self.lattice, self.seed = lattice, seed
        self._hat = np.empty((min(lattice.n_time, width + width // 8),)
                             + lattice.spectral_shape, complex)
        self._first = self._end = 0    # slices held: _first .. _end - 1
        self._sha = hashlib.sha256()

    def window(self, lo: int, hi: int) -> np.ndarray:
        if not self._first <= lo <= hi <= min(lo + len(self._hat),
                                              self.lattice.n_time):
            raise ValueError(f"window [{lo}, {hi}) moves back or overflows")
        while self._end < hi:
            if self._end - self._first == len(self._hat):
                # blocks no longer than the shift do not overlap their
                # source, so no assignment copies the whole window first
                shift, n = lo - self._first, self._end - lo
                for a in range(0, n, shift):
                    b = min(a + shift, n)
                    self._hat[a:b] = self._hat[a + shift:b + shift]
                self._first = lo
            top = min(hi, self._first + len(self._hat))
            self._draw(self._sha, range(self._end, top),
                       self._hat[self._end - self._first:])
            self._end = top
        return self._hat[lo - self._first:hi - self._first]

    def checksum(self) -> str:
        """Equals ``sample_white_noise(...).checksum()``: the slices no
        window reached are drawn for it."""
        sha = self._sha.copy()
        self._draw(sha, range(self._end, self.lattice.n_time))
        return _checksum(sha, self.lattice, self.seed)

    def _draw(self, sha, slices: range, hat=None) -> None:
        """Feed ``sha`` the raw ``slices`` in time order, writing the
        spatial rfftn of the j-th to ``hat[j]`` if given.  The slices go in
        runs of :func:`_run_length` consecutive slices, each one draw, one
        stacked rfft and one hash update.  Run j is drawn by thread j mod n,
        one per usable core (thread 0 the caller); a helper draws its next
        run once the caller has taken its last, and its error is raised
        here.  Every helper is joined before return."""
        per = _run_length(self.lattice)
        n_runs = -(-len(slices) // per)
        n, held, stop = min(_cores(), n_runs), {}, False
        room = [threading.Semaphore(1) for _ in range(n)]
        ready = [threading.Semaphore(0) for _ in range(n)]

        def draw(j):
            run = slices[j * per:(j + 1) * per]
            xi = _white_run(self.lattice, self.seed, run.start, len(run))
            if hat is not None:
                self.lattice.rfft(xi, out=hat[j * per:j * per + len(run)])
            return xi

        def helper(t):
            for j in range(t, n_runs, n):
                room[t].acquire()
                if stop:
                    return
                try:
                    held[j] = draw(j)
                except BaseException as exc:     # the caller raises it
                    held[j] = exc
                ready[t].release()

        helpers = [threading.Thread(target=helper, args=(t,))
                   for t in range(1, n)]
        try:
            for h in helpers:
                h.start()
            for j in range(n_runs):
                if j % n:
                    ready[j % n].acquire()
                    xi = held.pop(j)
                    if isinstance(xi, BaseException):
                        raise xi
                    room[j % n].release()
                else:
                    xi = draw(j)
                sha.update(np.ascontiguousarray(xi, dtype="<f8"))
        finally:
            stop = True
            for r, h in zip(room[1:], helpers):     # wake a waiting helper
                r.release()
                h.join()


# ---------------------------------------------------------------------------
# radial Fourier transforms
# ---------------------------------------------------------------------------

# Cephes j0: a rational fit on [0, 5], the Hankel asymptotic form beyond.
# np.polyval is Horner's rule as in Cephes' polevl; a leading 1.0 makes
# it p1evl.
_J0_DR1 = 5.78318596294678452118E0           # first two zeros, squared
_J0_DR2 = 3.04712623436620863991E1
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12,
          -2.49248344360967716204E14, 9.70862251047306323952E15)
_J0_RQ = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5,
          4.84409658339962045305E7, 1.11855537045356834862E10,
          2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2,
          1.23953371646414299388E0, 5.44725003058768775090E0,
          8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2,
          1.25352743901058953537E0, 5.47097740330417105182E0,
          8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0,
          -1.95539544257735972385E1, -9.32060152123768231369E1,
          -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2,
          3.88240183605401609683E3, 7.24046774195652478189E3,
          5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)


def _j0(x) -> np.ndarray:
    """Bessel J0, the Cephes algorithm with its coefficients and operation
    order (so equal to scipy.special.j0 bit for bit)."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= 5.0
    z = x[small] ** 2
    p = (z - _J0_DR1) * (z - _J0_DR2) * np.polyval(_J0_RP, z) \
        / np.polyval(_J0_RQ, z)
    out[small] = np.where(x[small] < 1e-5, 1.0 - z / 4.0, p)
    xl = x[~small]
    w = 5.0 / xl
    q = 25.0 / (xl * xl)
    p = np.polyval(_J0_PP, q) / np.polyval(_J0_PQ, q)
    q = np.polyval(_J0_QP, q) / np.polyval(_J0_QQ, q)
    xn = xl - math.pi / 4
    p = p * np.cos(xn) - w * q * np.sin(xn)
    out[~small] = p * 7.9788456080286535587989E-1 / np.sqrt(xl)  # sqrt(2/pi)
    return out


def radial_fourier(fn: Callable, r_max: float, k: np.ndarray,
                   d: int) -> np.ndarray:
    """Transform int f(|x|) e^{-2 pi i k.x} dx of a radial function.

    ``k`` is an array of frequency magnitudes.  The quadrature on [0, r_max]
    sums basis(k, s) * jac(s) * f(s) * w(s) over its nodes s, with basis
    j0(2 pi k s) in d = 2, sinc(2 k s) in d = 3, and radial Jacobian
    jac = |S^{d-1}| s^{d-1}; at least 64 order-8 panels, more when needed
    to resolve the fastest oscillation present.  One node set serves every
    k; the basis is evaluated in blocks of rows of k of about ``_F_BLOCK``
    entries, so it is never held for every k at once.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float)).ravel()
    need = max(64, int(6 * float(np.max(k)) * r_max) + 8)
    g = panel_grid(list(np.linspace(0.0, r_max, need + 1)), 8)
    s = g.nodes
    jac = 2.0 * math.pi * s if d == 2 else 4.0 * math.pi * s ** 2
    weights = jac * fn(s) * g.weights
    out = np.empty(k.size)
    rows = max(1, _F_BLOCK // s.size)
    for lo in range(0, k.size, rows):
        x = np.outer(k[lo:lo + rows], s)
        basis = _j0(2.0 * math.pi * x) if d == 2 else np.sinc(2.0 * x)
        out[lo:lo + rows] = (basis * weights).sum(axis=1)
    return out


def mollifier_transform(spec: MollifierSpec, eps: float,
                        k_mags: np.ndarray) -> np.ndarray:
    """Spatial-profile transform at scale eps: rho_eps^x -> rho_hat(eps |k|),
    evaluated once per distinct magnitude."""
    mags = eps * k_mags
    uniq, inverse = np.unique(np.round(mags.ravel(), 9), return_inverse=True)
    return radial_fourier(spec.x_profile, spec.x_radius, uniq,
                          spec.d)[inverse].reshape(mags.shape)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _temporal_weights(spec: MollifierSpec, eps: float, dt: float
                      ) -> np.ndarray:
    """Cell averages of the scaled temporal profile.

    Integrating over each dt cell (rather than sampling) keeps the weight
    sum at exactly the profile mass for every eps / dt combination; when the
    profile is narrower than one cell the filter degenerates to the discrete
    identity instead of a mis-normalised spike.
    """
    half = spec.t_halfwidth * eps ** 2
    m = int(math.floor(half / dt + 0.5)) + 1
    cell_edges = dt * (np.arange(-m, m + 2) - 0.5)
    support = np.linspace(-half, half, 33)
    edges = np.sort(np.concatenate([
        cell_edges, support[(support > cell_edges[0])
                            & (support < cell_edges[-1])]]))
    # distinct edges, as np.unique gives them without importing numpy.ma
    edges = edges[np.r_[True, edges[1:] != edges[:-1]]]
    g = panel_grid(list(edges), 6)
    vals = g.weights * spec.scaled_t(g.nodes, eps)
    cells = np.clip(np.round(g.nodes / dt).astype(int) + m, 0, 2 * m)
    out = np.zeros(2 * m + 1)
    np.add.at(out, cells, vals)
    return out


# steps of one temporal-filter block: the forcing of B steps is one GEMM per
# scale, reading the held noise window once instead of B times
_FIR_BLOCK = 8


class _FIRMollifier:
    """The one mollifier: rho_eps * xi at one scale, on the spatial
    transforms of the noise slices.

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


def mollify_noise(xi: NoiseField, eps: float,
                  spec: Optional[MollifierSpec] = None) -> Field:
    """Discrete rho_eps * xi: the engine's FIR, one block of slices at a
    time over the whole field."""
    lat = xi.lattice
    if eps < 2.0 * lat.dx:
        raise ResolutionError(
            "eps=%g below the lattice guard 2*dx=%g" % (eps, 2 * lat.dx))
    spec = spec or MollifierSpec(lat.d)
    fir = _FIRMollifier(lat, eps, spec)
    raw_hat = lat.rfft(xi.values)
    out = np.empty(lat.shape)
    for i in range(0, lat.n_time, _FIR_BLOCK):
        b = min(_FIR_BLOCK, lat.n_time - i)
        out[i:i + b] = lat.irfft(fir.slice_hat(raw_hat, i, b))
    return Field(lattice=lat, values=out,
                 meta={"eps": eps, "kind": spec.kind, "seed": xi.seed})


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------

def save_field(path, obj: Union[Field, NoiseField]) -> Path:
    """Flat little-endian float64, row-major, time slowest; sidecar manifest."""
    base = Path(path)
    bin_path = base.with_suffix(".bin")
    arr = np.ascontiguousarray(obj.values, dtype="<f8")
    bin_path.write_bytes(arr.tobytes())
    lat = obj.lattice
    manifest = {
        "format_version": FORMAT_VERSION,
        "dims": list(obj.values.shape),
        "d": lat.d,
        "n_space": lat.n_space,
        "n_time": lat.n_time,
        "t_end": lat.t_end,
        "dt": lat.dt,
        "dx": lat.dx,
        "seed": getattr(obj, "seed", None),
        "generator_id": getattr(obj, "generator_id", None),
        "meta": getattr(obj, "meta", {}),
        "eps": getattr(obj, "meta", {}).get("eps"),
    }
    base.with_suffix(".json").write_text(json.dumps(manifest, indent=2))
    return bin_path

"""Reference code that the tests run and no command reaches.

The package holds what its commands reach (``tests/test_package.py`` checks
it); what only tests and acceptance items call lives here, moved verbatim
from the module named above each section:

* the paper's named trees and the noise count of a symbol (symbols);
* the plus-algebra grading, characters and the structure-group action
  ``Gamma_g = (id x g) D`` (hopf);
* one generator ``L_tau`` of the renormalisation group (renorm);
* the free heat kernel's int (G * rho_eps)^2 (kernels);
* chi = K_eps * xi by lag-summed Fourier multiplication, its exact lattice
  covariance and the Wick powers it centres (noise) -- the K-based
  stochastic convolution acceptance 7 certifies; the engine's chi is the
  solver's exact per-mode step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from fhnspde.hopf import JSymbol, PlusElem, _tensor, coproduct
from fhnspde.kernels import (
    MollifiedKernel,
    MollifierSpec,
    _mollify,
    _resolution,
    heat_kernel,
)
from fhnspde.noise import Field, Lattice, NoiseField, _fourier_bessel
from fhnspde.renorm import Combo, _extract, _pattern_sig
from fhnspde.symbols import (
    _EXT,
    _INT,
    _MONO,
    _ONE,
    _XI,
    ONE,
    XI,
    Homogeneity,
    Scaling,
    StructureError,
    Symbol,
    ext,
    homogeneity,
    integral,
    power,
    product,
)


# ---------------------------------------------------------------------------
# symbols: named trees and noise counts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def common_trees(d: int = 3, channel: int = 1) -> dict[str, Symbol]:
    """The named trees used throughout: RSI, RSV, RSW, RSoI, the composites.

    Built once per (d, channel); E-decorated entries exist only when the
    sector rule admits them in dimension d.
    """
    rsi = integral(XI)
    rsv = power(rsi, 2)
    rsw = power(rsi, 3)
    rsoi = ext(channel, rsi, d)
    out: dict[str, Symbol] = {
        "Xi": XI, "One": ONE,
        "RSI": rsi, "RSV": rsv, "RSW": rsw,
        "RSII": integral(rsi), "RSY": integral(rsv), "RSIW": integral(rsw),
        "RSWW": product([integral(rsw), rsv]),
        "RSVW": product([integral(rsw), rsi]),
        "RSWV": product([integral(rsv), rsv]),
        "RSVV": product([integral(rsv), rsi]),
        "RSWI": product([integral(rsi), rsv]),
        "RSVI": product([integral(rsi), rsi]),
    }
    if rsoi is not None:
        out.update({
            "RSoI": rsoi,
            "RSVo": product([rsi, rsoi]),
            "RSVoo": power(rsoi, 2),
            "RSWo": product([rsi, rsi, rsoi]),
            "RSWoo": product([rsi, rsoi, rsoi]),
            "RSWooo": power(rsoi, 3),
        })
        out.update({
            "RSYo": integral(out["RSVo"]),
            "RSYoo": integral(out["RSVoo"]),
            "RSIWo": integral(out["RSWo"]),
            "RSIWoo": integral(out["RSWoo"]),
            "RSIWooo": integral(out["RSWooo"]),
        })
    return {k: v for k, v in out.items() if v is not None}


def xi_count(sym: Symbol) -> int:
    """Number of noise occurrences (chaos order of the naive lift)."""
    if sym.tag == _XI:
        return 1
    if sym.tag in (_ONE, _MONO):
        return 0
    if sym.tag in (_INT, _EXT):
        return xi_count(sym.child)
    return sum(xi_count(f) for f in sym.factors)


# ---------------------------------------------------------------------------
# hopf: plus-algebra grading, characters and the group action
# ---------------------------------------------------------------------------

def plus_homogeneity(p: PlusElem, d: int) -> Homogeneity:
    """Exact grading of a plus-algebra monomial.

    ``J_k(tau)`` carries ``|tau| + 2 - |k|_s`` so that the coproduct preserves
    total homogeneity term by term.
    """
    sc = Scaling(d)
    h = Homogeneity(sc.degree(p.k)) if p.k else Homogeneity(0)
    for j in p.js:
        h = h + homogeneity(j.tau, d) + Homogeneity(2 - sc.degree(j.k))
    return h


def is_primitive_for_group(tau: Symbol, d: int) -> bool:
    """True when ``D(tau) = tau x 1`` (the recentering action is trivial)."""
    return coproduct(tau, d) == _tensor(tau)


@dataclass
class Character:
    """Multiplicative functional on the plus-algebra.

    ``j_values`` assigns scalars to recentering generators (unset generators
    default to 0); ``point`` evaluates the polynomial part, with the unit
    convention ``X^0 -> 1`` (``point=None`` keeps only the ``k = 0`` terms).
    Values may be floats or any commutative scalars (e.g. sympy expressions).
    """

    j_values: dict[JSymbol, object] = field(default_factory=dict)
    point: Optional[tuple[float, ...]] = None

    def __call__(self, p: PlusElem) -> object:
        val: object = 1
        if any(p.k):
            if self.point is None:
                return 0
            if len(self.point) != len(p.k):
                raise StructureError("point length does not match multiindex")
            for x, n in zip(self.point, p.k):
                val = val * x ** n
        for j in p.js:
            v = self.j_values.get(j, 0)
            if v == 0:
                return 0
            val = val * v
        return val


def group_action(g: Union[Character, Callable[[PlusElem], object]],
                 tau: Symbol, d: int) -> dict[Symbol, object]:
    """``Gamma_g tau = (id x g) D(tau)`` as a symbol -> coefficient map."""
    out: dict[Symbol, object] = {}
    for (left, right), c in coproduct(tau, d).terms.items():
        v = g(right)
        if v == 0:
            continue
        out[left] = out.get(left, 0) + c * v
    return {s: v for s, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# renorm: one generator of the renormalisation group
# ---------------------------------------------------------------------------

def generator_action(pattern: Symbol, sym: Symbol, d: int) -> Combo:
    """``L_pattern`` applied to a symbol: all extractions with their counts."""
    return _extract(_pattern_sig(pattern), sym, d)


# ---------------------------------------------------------------------------
# kernels: the free heat kernel's squared integral
# ---------------------------------------------------------------------------

def g_eps_squared(d: int, eps: float, rho: Optional[MollifierSpec] = None,
                  t_window: float = 1.0) -> float:
    """int_{t <= t_window} int (G * rho_eps)^2 dx dt for the free heat kernel.

    The time window makes the outer integral finite; the small-eps behaviour
    (the 1/eps rate in d = 3, the (1/4 pi) log(1/eps) slope in d = 2) is
    window-independent because it comes from the origin.
    """
    rho = rho or MollifierSpec(d)
    r_hi = 6.0 * math.sqrt(t_window) + rho.x_radius * eps
    return _mollify(lambda t, r: heat_kernel(t, r, d), d, eps, rho,
                    _resolution(0), t_window, r_hi).squared_integral()


# ---------------------------------------------------------------------------
# noise: the K-based stochastic convolution and Wick powers
# ---------------------------------------------------------------------------

def kernel_slice_transforms(kernel: MollifiedKernel, lattice: Lattice
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Sample K(tau_j, .) at slice lags and transform each slice radially.

    Returns (taus, K_hat) with K_hat[j] on the rfftn frequency lattice; the
    torus aliasing of integer frequencies is exactly the periodisation of
    the compactly supported kernel.  One evaluation of K covers every lag,
    and one product with the oscillatory quadrature matrix transforms them.
    """
    t_lo, t_hi = kernel.t_support
    m0 = int(math.floor(t_lo / lattice.dt))
    m1 = int(math.ceil(t_hi / lattice.dt)) - 1
    # lag cell m covers (m dt, (m+1) dt]; midpoint sampling represents the
    # cell average of K against slice-constant noise to second order
    taus = lattice.dt * (np.arange(m0, m1 + 1) + 0.5)
    mags = lattice.k_magnitudes()
    flat = np.round(mags.ravel(), 9)
    uniq, inverse = np.unique(flat, return_inverse=True)
    s, w, basis, jac = _fourier_bessel(uniq, kernel.r_support, lattice.d, 48)
    hats = kernel(taus[:, None], s) @ (basis * (jac * w)).T
    return taus, hats[:, inverse].reshape((len(taus),) + mags.shape)


def kernel_convolution(xi: Union[Field, NoiseField],
                       kernel: MollifiedKernel,
                       out_slices: Sequence[int],
                       transforms: Optional[tuple] = None) -> np.ndarray:
    """chi(t_i) = (K * xi)(t_i) by lag-summed Fourier multiplication.

    Noise outside [0, t_end] is taken as zero, so outputs within the kernel's
    time width of either end are boundary-affected.  Returns the stack of
    requested slices.
    """
    lat = xi.lattice
    ax = tuple(range(1, lat.d + 1))
    taus, hats = transforms or kernel_slice_transforms(kernel, lat)
    m0 = int(round(taus[0] / lat.dt - 0.5))
    f_hat = np.fft.rfftn(xi.values, axes=ax)
    out = np.empty((len(out_slices),) + (lat.n_space,) * lat.d)
    for n, i in enumerate(out_slices):
        acc = np.zeros_like(f_hat[0])
        for j in range(len(taus)):
            s = i - 1 - (m0 + j)
            if 0 <= s < lat.n_time:
                acc += hats[j] * f_hat[s]
        out[n] = lat.dt * np.fft.irfftn(acc, s=(lat.n_space,) * lat.d,
                                        axes=tuple(range(0, lat.d)))
    return out


def lattice_covariance(kernel: MollifiedKernel, lattice: Lattice,
                       lag_slices: int = 0,
                       space_lag: Optional[Sequence[int]] = None,
                       transforms: Optional[tuple] = None) -> float:
    """Exact E[chi(t, x) chi(t + lag, x + z)] for chi = K * xi on the lattice.

    Stationary value (all boundary slices available); the Fourier machinery
    here is the same one `kernel_convolution` applies to samples, so the
    prediction matches the simulated field identically.
    """
    lat = lattice
    taus, hats = transforms or kernel_slice_transforms(kernel, lat)
    n_half = lat.spectral_shape[-1]
    # weights of the rfftn representation: conjugate-pair modes count twice
    mult = np.full(hats.shape[1:], 2.0)
    sl = [slice(None)] * (lat.d - 1) + [0]
    mult[tuple(sl)] = 1.0
    if lat.n_space % 2 == 0:
        sl[-1] = n_half - 1
        mult[tuple(sl)] = 1.0
    if space_lag is None:
        phase = np.ones(hats.shape[1:])
    else:
        ang = sum(2.0 * math.pi * m * (l * lat.dx)
                  for m, l in zip(lat._k_mesh(), space_lag))
        phase = np.cos(ang)
    total = 0.0
    n = len(taus)
    for j in range(n):
        jj = j + lag_slices
        if 0 <= jj < n:
            total += float(np.sum(mult * phase * hats[j] * hats[jj]))
    return lat.dt * total


def lattice_chi_constant(kernel: MollifiedKernel, lattice: Lattice,
                         transforms: Optional[tuple] = None) -> float:
    """Lattice-adjusted Var(chi): the centring constant for Wick powers."""
    return lattice_covariance(kernel, lattice, 0, None, transforms)


def wick_square(chi: np.ndarray, c: float) -> np.ndarray:
    """Second Wick power: chi^2 - c with the matched variance constant."""
    return np.square(chi) - c


def wick_cube(chi: np.ndarray, c: float) -> np.ndarray:
    """Third Wick power: chi^3 - 3 c chi."""
    return chi ** 3 - 3.0 * c * chi

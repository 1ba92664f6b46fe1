"""Reference code that the tests run and no command reaches.

The package holds what its commands reach (``tests/test_package.py`` checks
it); what only tests and acceptance items call lives here, moved verbatim
from the module named above each section:

* the paper's named trees and the noise count of a symbol (symbols);
* the plus-algebra grading, characters and the structure-group action
  ``Gamma_g = (id x g) D`` (hopf);
* one generator ``L_tau`` of the renormalisation group (renorm);
* the free heat kernel's int (G * rho_eps)^2 (kernels);
* the d = 2 radial operator by the cardinal splines evaluated at every
  angle node (kernels), which the package builds from power sums;
* chi = K_eps * xi by lag-summed Fourier multiplication, its exact lattice
  covariance and the Wick powers it centres (noise) -- the K-based
  stochastic convolution acceptance 7 certifies; the engine's chi is the
  solver's exact per-mode step;
* the whole-basis Fourier-Bessel quadrature and the mollifier transform
  evaluated with it (noise), which the package evaluates in row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from fhnspde.hopf import JSymbol, PlusElem, _tensor, coproduct
from fhnspde.kernels import (
    _F_BLOCK,
    _N_THETA,
    Grid1D,
    MollifiedKernel,
    MollifierSpec,
    _leggauss,
    _mollify,
    _resolution,
    _Spline,
    heat_kernel,
    panel_grid,
)
from fhnspde.noise import Field, Lattice, NoiseField, _j0
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


def radial_basis_d2(f_nodes: np.ndarray, s_grid: Grid1D, rho: np.ndarray,
                    n_theta: int = _N_THETA) -> np.ndarray:
    """``kernels._radial_basis(2, ...)`` with the cardinal splines evaluated
    at every (rho, s, theta) point, then contracted over theta; blocks of
    rho whose spline samples hold about ``_F_BLOCK`` entries."""
    s, nf = s_grid.nodes, f_nodes.size
    top = float(f_nodes[-1])
    u = np.concatenate([[0.0], f_nodes])
    eye = np.eye(nf)
    # f is held flat from its first node down to 0
    value = _Spline.not_a_knot(u, np.concatenate([eye[:1], eye]))
    ws = s_grid.weights * s
    xt, wt = _leggauss(n_theta)
    cos_theta = np.cos(0.5 * math.pi * (xt + 1.0))
    G = np.empty((nf, s.size, rho.size))
    step = max(1, _F_BLOCK // (nf * s.size * n_theta))
    for lo in range(0, rho.size, step):
        r = rho[lo:lo + step, None]
        dist = np.sqrt(np.maximum(
            r[..., None] ** 2 + s[:, None] ** 2
            - 2.0 * r[..., None] * s[:, None] * cos_theta, 0.0))
        # the full circle: twice the half-circle rule, as the integrand
        # is even in theta
        wth = np.where(dist <= top, math.pi * wt, 0.0)
        block = (wth[..., None, :]
                 @ value(np.minimum(dist, top)))[..., 0, :]
        block *= ws[:, None]
        G[..., lo:lo + step] = block.transpose(2, 1, 0)
    return G


# ---------------------------------------------------------------------------
# noise: the K-based stochastic convolution and Wick powers
# ---------------------------------------------------------------------------

def _fourier_bessel(k: np.ndarray, r_max: float, d: int,
                    n_panels: int) -> tuple:
    """Quadrature for radial transforms on [0, r_max] at magnitudes ``k``.

    int f(|x|) e^{-2 pi i k.x} dx ~= sum_s basis[k, s] * jac[s] * f(s) * w[s]
    with basis j0(2 pi k s) in d = 2, sinc(2 k s) in d = 3, and radial
    Jacobian jac = |S^{d-1}| s^{d-1}.  At least ``n_panels`` order-8
    panels, more when needed to resolve the fastest oscillation present.
    Returns (s, w, basis, jac).
    """
    need = max(n_panels, int(6 * float(np.max(k)) * r_max) + 8)
    g = panel_grid(list(np.linspace(0.0, r_max, need + 1)), 8)
    s = g.nodes
    if d == 2:
        return s, g.weights, _j0(2.0 * math.pi * np.outer(k, s)), \
            2.0 * math.pi * s
    return s, g.weights, np.sinc(2.0 * np.outer(k, s)), \
        4.0 * math.pi * s ** 2


def whole_basis_mollifier_transform(spec: MollifierSpec, eps: float,
                                    k_mags: np.ndarray) -> np.ndarray:
    """``noise.mollifier_transform`` with the (distinct |eps k|) x (radial
    nodes) basis evaluated at once, as one matrix."""
    mags = eps * k_mags
    uniq, inverse = np.unique(np.round(mags.ravel(), 9), return_inverse=True)
    s, w, basis, jac = _fourier_bessel(uniq, spec.x_radius, spec.d, 64)
    return (basis * (jac * spec.x_profile(s) * w)).sum(
        axis=1)[inverse].reshape(mags.shape)


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

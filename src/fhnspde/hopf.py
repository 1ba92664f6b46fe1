"""Structure-group combinatorics: the coproduct into the plus-algebra.

The coproduct maps a symbol into (symbol) x (plus-algebra), where the
plus-algebra is the free commutative algebra on monomials ``X^k`` and
recentering functionals ``J_k(tau)`` (one for each symbol ``tau`` outside the
polynomial sector and each multiindex ``k`` with ``|k|_s < |tau| + 2`` in the
exact lexicographic order -- the kappa offset decides the boundary cases).

Recursion::

    D(One)  = One x 1
    D(Xi)   = Xi x 1
    D(X^k)  = sum_{l <= k} C(k, l) X^l x X^{k-l}
    D(st)   = D(s) D(t)
    D(I t)  = (I x id) D(t) + sum_{l, m} X^l/l! x X^m/m! J_{l+m}(t)
    D(E t)  = (E x id) D(t)

with terms whose left leg is annihilated (``I`` of a polynomial, ``E`` outside
its sector) dropped.  A character ``g`` of the plus-algebra acts on symbols
by ``Gamma_g = (id x g) D``; no command computes it, and the characters and
the action are test reference code (``tests/reference.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from .symbols import (
    ONE,
    Homogeneity,
    Linear,
    Scaling,
    StructureError,
    Symbol,
    _symbol_product,
    display_name,
    ext,
    homogeneity,
    integral,
    monomial,
    to_text,
)

__all__ = [
    "JSymbol",
    "PlusElem",
    "PLUS_ONE",
    "TensorSum",
    "coproduct",
]


# ---------------------------------------------------------------------------
# Plus-algebra elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JSymbol:
    """Recentering functional ``J_k(tau)``: k-th recentering of ``I(tau)``."""

    k: tuple[int, ...]
    tau: Symbol

    def sort_key(self) -> tuple:
        return (self.tau.sort_key(), self.k)

    def text(self) -> str:
        name = display_name(self.tau)
        if all(v == 0 for v in self.k):
            return f"J({name})"
        nz = [(i, n) for i, n in enumerate(self.k) if n]
        if len(nz) == 1 and nz[0][1] == 1:
            return f"J{nz[0][0]}({name})"
        return f"J^{list(self.k)}({name})"


@dataclass(frozen=True)
class PlusElem:
    """Monomial of the plus-algebra: ``X^k * prod J_{k_i}(tau_i)``."""

    k: tuple[int, ...] = ()
    js: tuple[JSymbol, ...] = ()

    def __post_init__(self) -> None:
        if self.k and not any(self.k):
            object.__setattr__(self, "k", ())  # canonical unit monomial
        object.__setattr__(self, "js",
                           tuple(sorted(self.js, key=JSymbol.sort_key)))

    @property
    def is_unit(self) -> bool:
        return not self.js and all(v == 0 for v in self.k)

    def __mul__(self, other: "PlusElem") -> "PlusElem":
        if self.k and other.k:
            if len(self.k) != len(other.k):
                raise StructureError("mixing multiindex lengths")
            k = tuple(a + b for a, b in zip(self.k, other.k))
        else:
            k = self.k or other.k
        return PlusElem(k=k, js=self.js + other.js)

    def sort_key(self) -> tuple:
        return (len(self.js), tuple(j.sort_key() for j in self.js), self.k)

    def text(self) -> str:
        parts = []
        if any(self.k):
            parts.append(to_text(monomial(self.k)))
        parts.extend(j.text() for j in self.js)
        return "*".join(parts) if parts else "1"


PLUS_ONE = PlusElem()


# ---------------------------------------------------------------------------
# Tensor sums
# ---------------------------------------------------------------------------

class TensorSum(Linear):
    """Finite linear combination of ``symbol x plus-elem`` with exact weights."""

    __slots__ = ()

    @staticmethod
    def _pair_product(a: tuple[Symbol, PlusElem], b: tuple[Symbol, PlusElem]
                      ) -> Optional[tuple[Symbol, PlusElem]]:
        left = _symbol_product(a[0], b[0])
        return None if left is None else (left, a[1] * b[1])

    def map_left(self, fn: Callable[[Symbol], Optional[Symbol]]) -> "TensorSum":
        out = TensorSum()
        for (left, right), c in self.terms.items():
            new_left = fn(left)
            if new_left is not None:
                out._accumulate((new_left, right), c)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorSum) and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Symbol, PlusElem, Fraction]]:
        items = [(l, r, c) for (l, r), c in self.terms.items()]
        items.sort(key=lambda t: (t[1].sort_key(), t[0].sort_key()))
        return items

    def text(self) -> str:
        """Display form, e.g. ``RSVW (x) 1 + RSI (x) J(RSW)``."""
        parts = []
        for left, right, c in self.sorted_terms():
            body = f"{display_name(left)} (x) {right.text()}"
            if c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<TensorSum {self.text()}>"


def _tensor(left: Symbol, right: PlusElem = PLUS_ONE,
            c: Union[int, Fraction] = 1) -> TensorSum:
    return TensorSum({(left, right): Fraction(c)})


# ---------------------------------------------------------------------------
# Coproduct
# ---------------------------------------------------------------------------

def _multiindices_upto(bound: int, d: int) -> Iterator[tuple[int, ...]]:
    """All multiindices on 1+d coordinates with scaled degree <= bound."""
    if bound < 0:
        return
    for k0 in range(bound // 2 + 1):
        rem = bound - 2 * k0
        for spatial in itertools.product(range(rem + 1), repeat=d):
            if sum(spatial) <= rem:
                yield (k0,) + spatial


def _splits(k: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...],
                                                  tuple[int, ...], int]]:
    """(l, k-l, multinomial C(k,l)) over componentwise l <= k."""
    ranges = [range(v + 1) for v in k]
    for l in itertools.product(*ranges):
        coeff = 1
        for a, b in zip(k, l):
            coeff *= math.comb(a, b)
        yield l, tuple(a - b for a, b in zip(k, l)), coeff


def _factorial(k: tuple[int, ...]) -> int:
    out = 1
    for v in k:
        out *= math.factorial(v)
    return out


@lru_cache(maxsize=None)
def coproduct(tau: Symbol, d: int) -> TensorSum:
    """Structure-group coproduct of a canonical symbol in dimension d,
    memoised per (symbol, d): the returned ``TensorSum`` is shared, so
    callers must not mutate it (``+``, ``*``, ``map_left`` build new sums)."""
    sc = Scaling(d)
    if tau.tag in ("one", "xi"):
        return _tensor(tau)
    if tau.tag == "mono":
        out = TensorSum()
        for l, m, c in _splits(tau.k):
            out.add((monomial(l), PlusElem(k=m)), c)
        return out
    if tau.tag == "int":
        child = tau.child
        out = coproduct(child, d).map_left(integral)
        # recentering tail: J_k(child) survives iff |k|_s < |child| + 2
        bound = homogeneity(child, d) + Homogeneity(2)
        for n in _multiindices_upto(int(bound.r) + 1, d):
            if not (Homogeneity(sc.degree(n)) < bound):
                continue
            j = JSymbol(k=n, tau=child)
            for l, m, c in _splits(n):
                w = Fraction(c, _factorial(n))
                out.add((monomial(l), PlusElem(k=m, js=(j,))), w)
        return out
    if tau.tag == "ext":
        ch = tau.channel
        return coproduct(tau.child, d).map_left(lambda s: ext(ch, s, d))
    if tau.tag == "prod":
        out = _tensor(ONE)
        for f in tau.factors:
            out = out * coproduct(f, d)
        return out
    raise StructureError(f"unknown symbol tag {tau.tag!r}")

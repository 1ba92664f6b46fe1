"""Renormalisation group on symbols and the renormalised nonlinearity.

The group is generated by extraction operators ``L_tau`` indexed by two
families of divergent patterns:

* leg pairs ``tau`` over the alphabet {I(Xi), E_i(I(Xi))} (the RSV family),
* composites ``sigma = I(tau1) * tau2`` with ``tau1, tau2`` leg pairs.

``L_tau`` extracts the pattern wherever it sits: a pair is removed from the
legs of the root product or, recursively, from the argument of any ``I`` (an
``I`` left with purely polynomial content is annihilated); a composite is
matched by choosing an ``I(P)`` factor containing ``tau1`` among the legs of
``P`` and ``tau2`` among the remaining root legs, contracting both and
reattaching the leftover of ``P`` to the root.  Every admissible placement
contributes its multiset count.  A renormalisation map is

    M = exp( - sum_tau C(tau) L_tau )

with scalar constants ``C(tau)``; the series terminates because every
extraction strictly lowers the noise count.

A pattern's signature counts its legs by channel (:func:`symbols.leg_channel`).

The second half of the module derives the renormalised equation.  One
truncated substitution, ``_substitute``, expands ``F(u, v_1..v_n)`` on the
symbol basis, both for the first-order pass that reads the fixed-point
coefficients off ``F`` and on the fixed point itself; the derivation applies
``M - id`` to the latter, collects the coefficients of the symbols of
non-positive homogeneity, and factors them through counterterms
``F - c0 - c1*u - sum_i c2_i*v_i`` whenever that is exactly possible,
reporting the obstruction terms when it is not.

Its scalars are exact expanded polynomials in named symbols
(:class:`Scalar`), printed as sympy prints them.  sympy is not imported:
a sympy expression handed in (F, a constant, a ``Combo`` weight) is
converted once, and a ``Scalar`` converts back through sympy's
``_sympy_`` hook.
"""

from __future__ import annotations

import ast
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .symbols import (
    ONE,
    Homogeneity,
    Linear,
    Symbol,
    _symbol_product,
    ext,
    homogeneity,
    integral,
    leg,
    leg_channel,
    product,
    to_text,
    x_power,
)

__all__ = [
    "Scalar",
    "UnsupportedSymbolError",
    "Combo",
    "pair_family",
    "composite_family",
    "divergent_patterns",
    "constant_symbol",
    "RenormMap",
    "ChaosZero",
    "classify_chaos_zero",
    "CubicPolynomial",
    "FixedPointExpansion",
    "fixed_point_expansion",
    "RenormalizedEquation",
    "renormalized_nonlinearity",
]


class UnsupportedSymbolError(ValueError):
    """Raised when asked to extract a pattern outside the generator families."""


# ---------------------------------------------------------------------------
# Exact scalars and linear combinations of symbols over them
# ---------------------------------------------------------------------------

class Scalar(Linear):
    """Exact polynomial in named symbols, always expanded.

    ``terms`` maps a monomial -- its ``(name, power)`` pairs sorted by name,
    ``()`` for the constant -- to a non-zero ``Fraction``; a float is read
    exactly (0.1 is 3602879701896397/2**55).  Numbers combine with it; with
    a sympy operand the result is sympy's, through :meth:`_sympy_`.
    """

    __slots__ = ()

    @staticmethod
    def _pair_product(a: tuple, b: tuple) -> tuple:
        powers = dict(a)
        for name, k in b:
            powers[name] = powers.get(name, 0) + k
        return tuple(sorted(powers.items()))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        return cls({((name, 1),): 1})

    @classmethod
    def of(cls, x: object) -> "Scalar":
        """``x`` as a Scalar: a Scalar, a number or a sympy expression."""
        if isinstance(x, Scalar):
            return x
        if not hasattr(x, "free_symbols"):
            return cls({(): x})
        out = cls()
        for term, c in x.expand().as_coefficients_dict().items():
            powers = term.as_powers_dict().items()
            if not (c.is_Rational or c.is_Float) or not all(
                    b.is_Symbol and k.is_Integer and k > 0 or b == 1
                    for b, k in powers):
                raise ValueError(f"not polynomial in its symbols: {x}")
            out.add(tuple(sorted((b.name, int(k)) for b, k in powers
                                 if b != 1)),
                    Fraction(int(c.p), int(c.q)) if c.is_Rational
                    else Fraction(float(c)))
        return out

    @staticmethod
    def _operand(x: object) -> Optional["Scalar"]:
        # numbers combine; a sympy expression is left to its own operator
        return x if isinstance(x, Scalar) else Scalar({(): x}) \
            if isinstance(x, (int, float, Fraction)) else None

    def __add__(self, other: object) -> "Scalar":
        other = self._operand(other)
        return NotImplemented if other is None \
            else Linear.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other: object) -> "Scalar":
        other = self._operand(other)
        return NotImplemented if other is None \
            else Linear.__mul__(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return self.scaled(-1)

    def __sub__(self, other: object) -> "Scalar":
        return self + -other

    def __rsub__(self, other: object) -> "Scalar":
        return -self + other

    def __eq__(self, other: object) -> bool:
        other = self._operand(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __float__(self) -> float:
        if set(self.terms) - {()}:
            raise TypeError(f"{self} is not a number")
        return float(self.terms.get((), 0))

    def coeff(self, name: str, k: int) -> "Scalar":
        """The cofactor of ``name**k``, as sympy's ``coeff``: the terms with
        exactly that power of ``name``, divided by it."""
        out = Scalar()
        for mono, c in self.terms.items():
            if dict(mono).get(name, 0) == k:
                out.terms[tuple(p for p in mono if p[0] != name)] = c
        return out

    def zeroed(self, symbols: Sequence["Scalar"]) -> "Scalar":
        """The value with every symbol of ``symbols`` set to zero."""
        names = {x for s in symbols for mono in s.terms for x, _ in mono}
        out = Scalar()
        out.terms = {mono: c for mono, c in self.terms.items()
                     if not any(x in names for x, _ in mono)}
        return out

    def __str__(self) -> str:
        """``str()`` of the sympy expression, without sympy."""
        # sympy's printer orders the symbols by name (v10 before v2) and the
        # terms lexicographically in them, leading term first...
        names = sorted({x for mono in self.terms for x, _ in mono})
        terms = sorted(self.terms.items(), key=lambda t: [
            -dict(t[0]).get(x, 0) for x in names])
        # ...except that a positive constant leads one negative c*x^k
        if len(terms) == 2 and terms[1][0] == () and terms[1][1] > 0 \
                and terms[0][1] < 0 and len(terms[0][0]) == 1:
            terms.reverse()
        out = ""
        for mono, c in terms:
            factors = [x if k == 1 else f"{x}**{k}" for x, k in mono]
            if abs(c.numerator) != 1 or not factors:
                factors.insert(0, str(abs(c.numerator)))
            body = "*".join(factors)
            if c.denominator != 1:
                body += f"/{c.denominator}"
            out += (" - " if c < 0 else " + ") + body
        return "-" + out[3:] if out.startswith(" - ") else out[3:] or "0"

    __repr__ = __str__

    def _sympy_(self):
        # symbol by symbol, so that names sympy would not parse (C[...])
        # survive; sympy is loaded whenever it calls this
        import sympy
        return sympy.Add(*(sympy.Mul(c, *(sympy.Symbol(x) ** k
                                          for x, k in mono))
                           for mono, c in self.terms.items()))


class Combo(Linear):
    """Finite linear combination of symbols with :class:`Scalar` weights."""

    __slots__ = ()

    @staticmethod
    def _coerce(c: object) -> Scalar:
        return Scalar.of(c)

    _pair_product = staticmethod(_symbol_product)

    def coeff(self, sym: Symbol) -> Scalar:
        return self.terms.get(sym, Scalar())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Combo):
            return NotImplemented
        return self.terms == other.terms


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

def _leg_products(d: int, n_channels: int, k: int) -> list[Symbol]:
    """Products of k legs over channels 0..n_channels, in a fixed order."""
    legs = [leg(ch, d) for ch in range(n_channels + 1)]
    if any(sym is None for sym in legs):
        raise UnsupportedSymbolError(
            f"decorated leg not admissible in dimension {d}")
    return [product(c)
            for c in itertools.combinations_with_replacement(legs, k)]


def pair_family(d: int, n_channels: int) -> list[Symbol]:
    """Leg pairs over {I(Xi)} and the decorated legs (3 members for n = 1)."""
    return _leg_products(d, n_channels, 2)


def composite_family(d: int, n_channels: int) -> list[Symbol]:
    """Composites I(pair1)*pair2 over the pair family (9 members for n = 1)."""
    pairs = pair_family(d, n_channels)
    return [product([integral(p1), p2]) for p1 in pairs for p2 in pairs]


def divergent_patterns(d: int, n_channels: int) -> list[Symbol]:
    """Patterns whose chaos-0 contraction diverges as the mollifier is removed.

    The undecorated pair always does; the undecorated composite only in three
    dimensions (its contraction is logarithmic there, bounded in two).
    """
    return [pat for pat in pair_family(d, n_channels)
            + composite_family(d, n_channels)
            if classify_chaos_zero(pat, d).divergent]


def _pattern_sig(pattern: Symbol):
    """(kind, Counters of leg channels) of a pattern; raises if unsupported."""
    factors = list(pattern.iter_factors())
    chans = [leg_channel(f) for f in factors]
    if len(factors) == 2 and None not in chans:
        return ("pair", Counter(chans))
    deep = [f for f, ch in zip(factors, chans) if ch is None]
    legs = [ch for ch in chans if ch is not None]
    if (len(deep) == 1 and deep[0].tag == "int" and len(legs) == 2):
        inner = [leg_channel(f) for f in deep[0].child.iter_factors()]
        if len(inner) == 2 and None not in inner:
            return ("composite", Counter(inner), Counter(legs))
    raise UnsupportedSymbolError(
        f"no extraction rule for pattern {to_text(pattern)}")


def _decorated(legs: Counter) -> list[int]:
    """The channels of the decorated legs in a leg Counter, sorted."""
    return sorted(ch for ch in legs.elements() if ch)


def constant_symbol(pattern: Symbol) -> Scalar:
    """Conventional scalar name for a pattern's constant.

    Pairs: C1 with one prime per decorated leg (C1, C1p, C1pp).  Composites:
    C2 with primes counting inner then outer decorations; the undecorated
    composite is plain C2.  Multi-channel patterns fall back to an explicit
    bracketed name.
    """
    sig = _pattern_sig(pattern)
    if sig[0] == "pair":
        chans = _decorated(sig[1])
        if all(ch == 1 for ch in chans):
            return Scalar.symbol("C1" + "p" * len(chans))
    else:
        inner, outer = _decorated(sig[1]), _decorated(sig[2])
        if all(ch == 1 for ch in inner + outer):
            return Scalar.symbol("C2" + "p" * len(inner) + "q" * len(outer))
    return Scalar.symbol(f"C[{to_text(pattern)}]")


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _multiset_ways(have: Counter, need: Counter) -> int:
    ways = 1
    for t, n in need.items():
        ways *= math.comb(have.get(t, 0), n)
        if ways == 0:
            return 0
    return ways


def _remove_legs(factors: Sequence[Symbol], need: Counter) -> list[Symbol]:
    left = Counter(need)
    out = []
    for f in factors:
        ch = leg_channel(f)
        if ch is not None and left.get(ch, 0) > 0:
            left[ch] -= 1
            continue
        out.append(f)
    return out


def _extract(sig, sym: Symbol, d: int) -> Combo:
    out = Combo()
    factors = list(sym.iter_factors())
    legs_have = Counter(ch for f in factors
                        if (ch := leg_channel(f)) is not None)

    if sig[0] == "pair":
        need = sig[1]
        ways = _multiset_ways(legs_have, need)
        if ways:
            rest = _remove_legs(factors, need)
            out.add(product(rest) if rest else ONE, ways)
    else:
        need_in, need_out = sig[1], sig[2]
        for idx, f in enumerate(factors):
            if f.tag != "int":
                continue
            inner_factors = list(f.child.iter_factors())
            inner_have = Counter(ch for g in inner_factors
                                 if (ch := leg_channel(g)) is not None)
            ways1 = _multiset_ways(inner_have, need_in)
            if not ways1:
                continue
            others = factors[:idx] + factors[idx + 1:]
            other_legs = Counter(ch for g in others
                                 if (ch := leg_channel(g)) is not None)
            ways2 = _multiset_ways(other_legs, need_out)
            if not ways2:
                continue
            leftover = _remove_legs(inner_factors, need_in)
            rest = _remove_legs(others, need_out) + leftover
            out.add(product(rest) if rest else ONE, ways1 * ways2)

    # recurse through integration and decoration edges, position by position
    for idx, f in enumerate(factors):
        if f.tag not in ("int", "ext"):
            continue
        inner = _extract(sig, f.child, d)
        for s, c in inner.terms.items():
            nf = integral(s) if f.tag == "int" else ext(f.channel, s, d)
            if nf is None:
                continue
            rest = factors[:idx] + [nf] + factors[idx + 1:]
            p = product(rest)
            if p is not None:
                out.add(p, c)
    return out


class RenormMap:
    """``M = exp(-sum C(tau) L_tau)`` for a constants assignment tau -> C."""

    def __init__(self, constants: Mapping[Symbol, object], d: int) -> None:
        self.d = d
        scalars = {pat: Scalar.of(c) for pat, c in constants.items()}
        self.generators = [(_pattern_sig(pat), c)
                           for pat, c in scalars.items() if c != 0]

    def _derivation(self, combo: Combo) -> Combo:
        out = Combo()
        for sym, w in combo.terms.items():
            for sig, c in self.generators:
                out = out + _extract(sig, sym, self.d).scaled(-c * w)
        return out

    def apply(self, x: Union[Symbol, Combo]) -> Combo:
        combo = Combo({x: 1}) if isinstance(x, Symbol) else x
        total = Combo(combo.terms)
        layer = combo
        k = 1
        while True:
            layer = self._derivation(layer).scaled(Fraction(1, k))
            if not layer.terms:
                return total
            total = total + layer
            k += 1


# ---------------------------------------------------------------------------
# Chaos-0 classification of the pattern contractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosZero:
    """Zeroth-chaos contraction of a pattern: value, divergence, rate."""

    expr: str
    divergent: bool
    rate: str


def classify_chaos_zero(pattern: Symbol, d: int) -> ChaosZero:
    """Closed form of the pattern's chaos-0 constant and its small-scale order.

    A pair with m decorated legs contracts to ``Qm(0)``; only ``Q0(0)``
    diverges (order 1/eps for d = 3, log(1/eps) for d = 2).  A composite
    contracts through its two leg pairings into kernel integrals ``Iij``;
    only ``I00`` diverges, logarithmically and only for d = 3.
    """
    sig = _pattern_sig(pattern)
    if sig[0] == "pair":
        m = len(_decorated(sig[1]))
        if m == 0:
            rate = "eps^-1" if d == 3 else "log(1/eps)"
            return ChaosZero("Q0(0)", True, rate)
        return ChaosZero(f"Q{m}(0)", False, "O(1)")
    a1, a2 = sorted(int(ch > 0) for ch in sig[1].elements())
    b1, b2 = sorted(int(ch > 0) for ch in sig[2].elements())
    pairings = sorted([tuple(sorted((a1 + b1, a2 + b2))),
                       tuple(sorted((a1 + b2, a2 + b1)))])
    if pairings[0] == pairings[1]:
        i, j = pairings[0]
        expr = f"2*I{i}{j}"
    else:
        expr = " + ".join(f"I{i}{j}" for i, j in pairings)
    divergent = d == 3 and (0, 0) in pairings
    return ChaosZero(expr, divergent, "log(1/eps)" if divergent else "O(1)")


# ---------------------------------------------------------------------------
# Cubic nonlinearities
# ---------------------------------------------------------------------------

def _names(n_channels: int) -> tuple[str, ...]:
    return ("u",) + tuple(f"v{i}" for i in range(1, n_channels + 1))


def _read_polynomial(text: str, n_channels: int) -> Scalar:
    """F given as text, as an exact polynomial.

    The grammar is Python's arithmetic, read through ``ast``: integer and
    decimal literals, taken exactly from their digits (0.1 is 1/10), the
    variables u and v1..vn (v for v1 when n = 1), parentheses, + - * /, and
    ``**`` or ``^`` with an integer exponent.  Division is by constants
    only, and a negative exponent needs a constant base.  A function of the
    variables is not polynomial in them; any other name (pi, E, sqrt(2))
    is an unknown variable.
    """
    src = text.replace("^", "**").strip()
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse nonlinearity {text!r}: {exc}") \
            from None
    index = {name: name for name in _names(n_channels)}
    if n_channels == 1:
        index["v"] = "v1"
    # a function named on the variables is reported as not polynomial
    # below; any other unknown name, a function of constants too, is stray
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    stray = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id not in index
             and not (id(node) in calls and any(
                 isinstance(a, ast.Name) and a.id in index
                 for arg in calls[id(node)].args for a in ast.walk(arg)))}
    if stray:
        names = ("u" if n_channels == 0 else "u, v" if n_channels == 1
                 else f"u, v1..v{n_channels}")
        raise ValueError(
            f"unknown variables {sorted(stray)}; expected {names}")

    def not_polynomial(node) -> ValueError:
        return ValueError("not polynomial in (u, v): "
                          + ast.get_source_segment(src, node))

    def constant(node, owner) -> Fraction:
        p = ev(node).terms
        if not set(p) <= {()}:
            raise not_polynomial(owner)
        return p.get((), Fraction(0))

    def ev(node) -> Scalar:
        if isinstance(node, ast.Constant) and type(node.value) in (int,
                                                                   float):
            c = Fraction(node.value if type(node.value) is int else
                         ast.get_source_segment(src, node).replace("_", ""))
            return Scalar.of(c)
        if isinstance(node, ast.Name):
            return Scalar.symbol(index[node.id])
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.UAdd, ast.USub)):
            sign = 1 if isinstance(node.op, ast.UAdd) else -1
            return ev(node.operand).scaled(sign)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                sign = 1 if isinstance(node.op, ast.Add) else -1
                return ev(node.left) + ev(node.right).scaled(sign)
            if isinstance(node.op, ast.Mult):
                return ev(node.left) * ev(node.right)
            if isinstance(node.op, ast.Div):
                k = constant(node.right, node)
                if k == 0:
                    raise ZeroDivisionError("division by zero")
                return ev(node.left).scaled(1 / k)
            if isinstance(node.op, ast.Pow):
                base, k = ev(node.left), constant(node.right, node)
                if k.denominator != 1:
                    raise not_polynomial(node)
                if set(base.terms) <= {()}:
                    return Scalar.of(base.terms.get((), Fraction(0))
                                     ** int(k))
                if k < 0:
                    raise not_polynomial(node)
                if k > 3:      # the power alone has degree > 3
                    raise ValueError(
                        "nonlinearity must have total degree <= 3")
                out = Scalar.of(1)
                for _ in range(int(k)):
                    out = out * base
                return out
        if isinstance(node, ast.Call):
            raise not_polynomial(node)
        raise ValueError(f"cannot parse nonlinearity {text!r}: unsupported "
                         f"{ast.get_source_segment(src, node)!r}")

    try:
        return ev(tree.body)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse nonlinearity {text!r}: {exc}") \
            from None


def _table(p: Scalar, n_channels: int) -> dict:
    """F's coefficients by exponent tuple over (u, v1..vn); the other
    symbols of ``p`` belong to the coefficients."""
    names = _names(n_channels)
    stray = {x for mono in p.terms for x, _ in mono if x not in names
             and x[0] in "uv" and x[1:].isdigit()}
    if stray:
        raise ValueError(
            f"variables {sorted(stray)} outside the declared "
            f"{n_channels} slow channel(s)")
    table = {}
    for mono, c in p.terms.items():
        powers = dict(mono)
        e = tuple(powers.pop(x, 0) for x in names)
        table.setdefault(e, Scalar()).add(tuple(powers.items()), c)
    return {e: c.terms[()] if list(c.terms) == [()] else c
            for e, c in table.items()}


@dataclass(frozen=True, init=False)
class CubicPolynomial:
    """Polynomial nonlinearity ``F(u, v_1..v_n)`` of total degree at most 3.

    ``terms``: its ``(exponents, coefficient)`` pairs over (u, v1..vn) in
    ``sympy.Poly``'s order, leading term first (the zero polynomial is one
    zero term).  ``F`` is text, read by :func:`_read_polynomial`, or a
    :class:`Scalar` or sympy expression.  Coefficients are exact
    ``Fraction``s, and polynomials (``Scalar``) where F has other symbols
    than u and v1..vn.
    """

    terms: tuple
    n_channels: int

    def __init__(self, F: object, n_channels: int) -> None:
        if n_channels < 0:
            raise ValueError(
                f"slow-channel count must be >= 0, got {n_channels}")
        table = _table(_read_polynomial(F, n_channels) if isinstance(F, str)
                       else Scalar.of(F), n_channels)
        if any(sum(e) > 3 for e in table):
            raise ValueError("nonlinearity must have total degree <= 3")
        zero = ((0,) * (n_channels + 1), Fraction(0))
        object.__setattr__(self, "terms", tuple(
            sorted(table.items(), reverse=True)) or (zero,))
        object.__setattr__(self, "n_channels", n_channels)

    @property
    def expr(self) -> Scalar:
        names = _names(self.n_channels)
        out = Scalar()
        for e, c in self.terms:
            out = out + Scalar({tuple(sorted(
                (x, k) for x, k in zip(names, e) if k)): 1}) * c
        return out

    @property
    def vs(self) -> tuple[Scalar, ...]:
        return tuple(map(Scalar.symbol, _names(self.n_channels)[1:]))

    def coefficient(self, p: int, q: Sequence[int] = ()):
        """Coefficient of the exact monomial ``u^p * v1^q1 * ...``."""
        exps = (p,) + tuple(q) + (0,) * (self.n_channels - len(tuple(q)))
        return dict(self.terms).get(exps, Fraction(0))

    @property
    def gamma1(self):
        return self.coefficient(3)

    @property
    def beta1(self):
        return self.coefficient(2)

    def gamma2(self, i: int):
        q = [0] * self.n_channels
        q[i - 1] = 1
        return self.coefficient(2, q)

    def text(self) -> str:
        """F as sympy prints it."""
        return str(self.expr)


# ---------------------------------------------------------------------------
# Fixed-point expansion
# ---------------------------------------------------------------------------

def _substitute(F: CubicPolynomial, u: Combo, vs: Sequence[Combo], d: int
                ) -> Combo:
    """``F(u, vs)`` on the symbol basis, restricted to homogeneities <= 0.

    Partial products are pruned against the most negative homogeneity the
    remaining factors could still contribute, so the restriction is exact.
    """
    out = Combo()
    for exps, coeff in F.terms:
        combos = [u] * exps[0]
        for v, e in zip(vs, exps[1:]):
            combos += [v] * e
        mins = [min(homogeneity(s, d) for s in f.terms) for f in combos]
        term = Combo({ONE: coeff})
        for i, f in enumerate(combos):
            room = Homogeneity(0)
            for m in mins[i + 1:]:
                room = room - m
            term = term * f
            term.terms = {s: c for s, c in term.terms.items()
                          if homogeneity(s, d) <= room}
        out = out + term
    return out


@dataclass
class FixedPointExpansion:
    """First-order symbol expansions of the fixed-point pair (U, V_1..V_n).

    ``U = RSI + phi*One + sum_i a_i I(w_i) + sum_j b_j I(p_j) + <grad phi, X>``
    over the leg triples ``w_i`` and pairs ``p_j``; each slow channel mirrors
    the shape with its decorated leading leg, scalar offset ``psi``, and
    opaque hatted coefficients (the slow-kernel convolutions of the fast
    ones).  Scalars are polynomials in the local function values.
    """

    u_combo: Combo
    v_combos: tuple[Combo, ...]
    a: dict[Symbol, Scalar]
    b: dict[Symbol, Scalar]
    phi: Scalar
    psi: tuple[Scalar, ...]
    hatted: tuple[Scalar, ...]


def fixed_point_expansion(F: CubicPolynomial, d: int) -> FixedPointExpansion:
    """Read the expansion coefficients off the nonlinearity.

    The triple coefficients ``a_i`` are the cubic coefficients of matching
    leg signature; the pair coefficients ``b_j`` collect the quadratic
    coefficients plus the first-order shifts by the local values (phi, psi).
    Both are obtained by substituting the first-order proxies
    ``u -> RSI + phi``, ``v_i -> E_i(RSI) + psi_i`` and collecting.
    """
    n_channels = F.n_channels
    rsi = leg(0, d)
    phi = Scalar.symbol("phi")
    psi = tuple(Scalar.symbol(f"psi{i}") for i in range(1, n_channels + 1))
    triples = _leg_products(d, n_channels, 3)
    pairs = _leg_products(d, n_channels, 2)

    # every leg triple and pair has negative homogeneity, so the cutoff at 0
    # keeps all the coefficients read below
    first_order = _substitute(
        F, Combo({rsi: 1, ONE: phi}),
        [Combo({leg(ch, d): 1, ONE: psi[ch - 1]})
         for ch in range(1, n_channels + 1)], d)
    a = {w: first_order.coeff(w) for w in triples}
    b = {p: first_order.coeff(p) for p in pairs}

    u_combo = Combo({rsi: 1, ONE: phi})
    for w, c in [*a.items(), *b.items()]:
        u_combo.add(integral(w), c)     # adding 0 leaves no term
    for i in range(d + 1):
        u_combo.add(x_power(i, d), Scalar.symbol(f"dphi{i}"))

    hatted: list[Scalar] = []
    v_combos = []
    for ch in range(1, n_channels + 1):
        tag = "" if n_channels == 1 else str(ch)
        vc = Combo({leg(ch, d): 1, ONE: psi[ch - 1]})
        for prefix, trees in (("ah", triples), ("bh", pairs)):
            for idx, w in enumerate(trees, start=1):
                s = Scalar.symbol(f"{prefix}{tag}{idx}")
                hatted.append(s)
                vc.add(integral(w), s)
        for i in range(d + 1):
            vc.add(x_power(i, d), Scalar.symbol(f"dpsi{tag}_{i}"))
        v_combos.append(vc)

    return FixedPointExpansion(
        u_combo=u_combo, v_combos=tuple(v_combos), a=a, b=b,
        phi=phi, psi=psi, hatted=tuple(hatted))


# ---------------------------------------------------------------------------
# Renormalised equation
# ---------------------------------------------------------------------------

@dataclass
class RenormalizedEquation:
    """Outcome of pushing the map through the fixed-point expansion.

    ``c0, c1, c2`` are the counterterms with ``Fhat = F - c0 - c1 u - c2.v``;
    ``proportional`` records whether they factor as
    ``(beta1/3, gamma1, gamma2_i/3) * C_eps`` with the single constant
    ``C_eps = 3 C1 + 9 gamma1 C2``; ``obstruction`` lists the residual terms
    (coefficient, target symbol) that no counterterm of that shape removes --
    empty exactly when the factorisation is complete.
    """

    c0: Scalar
    c1: Scalar
    c2: tuple[Scalar, ...]
    C_eps: Scalar
    proportional: bool
    factorized: bool
    obstruction: list[tuple[Scalar, Symbol]]
    Fhat: Scalar


def default_constants(d: int, n_channels: int) -> dict[Symbol, Scalar]:
    """Constants for the divergent patterns only (C1; plus C2 when d = 3)."""
    return {pat: constant_symbol(pat)
            for pat in divergent_patterns(d, n_channels)}


def renormalized_nonlinearity(F: CubicPolynomial, d: int,
                              constants: Optional[Mapping[Symbol, object]]
                              = None) -> RenormalizedEquation:
    """Derive the counterterms of the renormalised equation for ``F``.

    Applies ``M - id`` to the expanded fixed point, collects the coefficients
    of the non-positive-homogeneity symbols (One, the leading leg, and the
    decorated leading legs), and splits each into a part generated by
    counterterms ``c0 + c1 u + c2.v`` and an obstruction part carrying the
    opaque slow-channel (hatted) coefficients.
    """
    n = F.n_channels
    if constants is None:
        constants = default_constants(d, n)
    constants = {pat: Scalar.of(c) for pat, c in constants.items()}
    fp = fixed_point_expansion(F, d)
    # every extraction pattern has strictly negative homogeneity, so M - id
    # can only raise it: the sector at or below zero of (M - id)(G) is
    # computed exactly from the same sector of G
    G = _substitute(F, fp.u_combo, fp.v_combos, d)
    M = RenormMap(constants, d)
    delta = M.apply(G) + G.scaled(-1)

    rsi = leg(0, d)
    targets = [ONE] + [leg(i, d) for i in range(n + 1)]
    totals = {t: delta.coeff(t) for t in targets}
    for sym, c in delta.terms.items():
        if sym not in targets:
            h = homogeneity(sym, d)
            if h < Homogeneity(0) or h == Homogeneity(0):
                raise AssertionError(
                    f"unexpected non-positive symbol {to_text(sym)} "
                    f"in the renormalised expansion")

    pure = {t: c.zeroed(fp.hatted) for t, c in totals.items()}
    obstruction = [(c - pure[t], t) for t, c in totals.items()
                   if c != pure[t]]

    c1 = -pure[rsi]
    c2 = tuple(-pure[leg(i, d)] for i in range(1, n + 1))
    c0 = -pure[ONE].zeroed((fp.phi, *fp.psi))
    residual = pure[ONE] + c0 + c1 * fp.phi + sum(
        ci * pi for ci, pi in zip(c2, fp.psi))
    if residual != 0:
        # leftover local dependence that no constant-coefficient counterterm
        # reproduces; report it against the unit symbol
        obstruction.append((-residual, ONE))
    factorized = not obstruction

    pair0 = product([rsi, rsi])
    C1 = constants.get(pair0, Scalar())
    comp0 = product([integral(pair0), pair0])
    C2 = constants.get(comp0, Scalar())
    C_eps = 3 * C1 + 9 * F.gamma1 * C2
    third = Fraction(1, 3)
    proportional = (
        c0 == F.beta1 * C_eps * third and c1 == F.gamma1 * C_eps
        and all(ci == F.gamma2(i + 1) * C_eps * third
                for i, ci in enumerate(c2)))

    Fhat = F.expr - c0 - c1 * Scalar.symbol("u") - sum(
        ci * vi for ci, vi in zip(c2, F.vs))
    return RenormalizedEquation(
        c0=c0, c1=c1, c2=c2, C_eps=C_eps, proportional=proportional,
        factorized=factorized, obstruction=obstruction, Fhat=Fhat)

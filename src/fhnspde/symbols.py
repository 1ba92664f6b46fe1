"""Graded symbol algebra for FitzHugh-Nagumo-type singular SPDE systems.

Symbols are rooted decorated trees built from a driving-noise symbol, polynomial
monomials, an integration operator ``I`` (convolution with the truncated heat
kernel, homogeneity +2), a family of homogeneity-preserving channel operators
``E_i`` (convolution of the slow channels against an exponential-decay kernel),
and a flat commutative product.  Homogeneities are tracked exactly as rational
pairs ``(r, s)`` standing for ``r + s*kappa`` in the small positive regularity
offset ``kappa -> 0+``, ordered lexicographically.

Canonical form: products are flattened and sorted under a fixed structural
total order, monomial factors are merged by adding multiindices, unit factors
are absorbed, ``I`` applied to a purely polynomial argument is zero, and
``E_i`` applied to a symbol whose homogeneity lies outside the open sector
``(-2, 0)`` is zero.  Zero is not a symbol: constructors return ``None`` and
linear combinations simply drop the term.

Legs are encoded here only: :func:`leg` builds I(Xi) (channel 0) or E_i(I(Xi))
(channel i), and :func:`leg_channel` reads the channel back (None: not a leg).
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "StructureError",
    "Homogeneity",
    "Scaling",
    "Symbol",
    "XI",
    "ONE",
    "monomial",
    "x_power",
    "integral",
    "ext",
    "product",
    "power",
    "leg",
    "leg_channel",
    "Linear",
    "homogeneity",
    "from_text",
    "TableRow",
    "SymbolTable",
    "enumerate_symbols",
]


class StructureError(ValueError):
    """Raised for malformed symbol input (negative multiindex, bad arity, ...)."""


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

RationalLike = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Homogeneity:
    """Exact homogeneity ``r + s*kappa`` with lexicographic comparison.

    The dataclass ordering (``order=True``) is exactly the lexicographic order
    on ``(r, s)``, i.e. the ``kappa -> 0+`` limit order.
    """

    r: Fraction
    s: Fraction

    def __init__(self, r: RationalLike, s: RationalLike = 0) -> None:
        object.__setattr__(self, "r", Fraction(r))
        object.__setattr__(self, "s", Fraction(s))

    def __add__(self, other: "Homogeneity") -> "Homogeneity":
        return Homogeneity(self.r + other.r, self.s + other.s)

    def __sub__(self, other: "Homogeneity") -> "Homogeneity":
        return Homogeneity(self.r - other.r, self.s - other.s)

    def __neg__(self) -> "Homogeneity":
        return Homogeneity(-self.r, -self.s)

    def __str__(self) -> str:
        if self.s == 0:
            return str(self.r)
        sk = f"{abs(self.s)}k" if abs(self.s) != 1 else "k"
        sign = "-" if self.s < 0 else "+"
        if self.r == 0:
            return f"{'-' if self.s < 0 else ''}{sk}"
        return f"{self.r}{sign}{sk}"

    def as_float(self, kappa: float = 0.0) -> float:
        return float(self.r) + float(self.s) * kappa


@dataclass(frozen=True)
class Scaling:
    """Parabolic scaling (2, 1, ..., 1) on 1 + d coordinates (time first)."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise StructureError(f"spatial dimension must be >= 1, got {self.d}")

    def degree(self, k: Sequence[int]) -> int:
        """Scaled degree ``|k|_s = 2*k0 + k1 + ... + kd`` of a multiindex."""
        k = _check_multiindex(k, self.d)
        return 2 * k[0] + sum(k[1:])

    def noise_homogeneity(self) -> Homogeneity:
        """Driving space-time white noise sits just below ``-(d+2)/2``."""
        return Homogeneity(Fraction(-(self.d + 2), 2), -1)


def _check_multiindex(k: Sequence[int], d: int) -> tuple[int, ...]:
    k = tuple(int(v) for v in k)
    if len(k) != d + 1:
        raise StructureError(f"multiindex length {len(k)} != d+1 = {d + 1}")
    if any(v < 0 for v in k):
        raise StructureError(f"negative multiindex entry in {k}")
    return k


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

_XI = "xi"
_ONE = "one"
_MONO = "mono"
_INT = "int"
_EXT = "ext"
_PROD = "prod"

_RANK = {_XI: 0, _ONE: 1, _MONO: 2, _INT: 3, _EXT: 4, _PROD: 5}


@dataclass(frozen=True)
class Symbol:
    """Canonical immutable symbol tree.

    Do not call the constructor directly for composite symbols; use
    :func:`monomial`, :func:`integral`, :func:`ext`, :func:`product` which
    enforce canonical form (or :func:`from_text` for grammar text).
    """

    tag: str
    k: tuple[int, ...] = ()            # mono only
    child: Optional["Symbol"] = None   # int / ext
    channel: int = 0                   # ext only
    factors: tuple["Symbol", ...] = () # prod only

    def __post_init__(self):
        # instances are interior nodes of every downstream computation and
        # land in dicts constantly; pay the recursive hash once
        object.__setattr__(self, "_hash", hash(
            (self.tag, self.k, self.child, self.channel, self.factors)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """Structural total order: Xi < One < X^k < I < E < product."""
        cached = self.__dict__.get("_sort_key")
        if cached is not None:
            return cached
        rank = _RANK[self.tag]
        if self.tag == _MONO:
            key = (rank, self.k)
        elif self.tag == _INT:
            key = (rank, self.child.sort_key())
        elif self.tag == _EXT:
            key = (rank, self.channel, self.child.sort_key())
        elif self.tag == _PROD:
            key = (rank, tuple(f.sort_key() for f in self.factors))
        else:
            key = (rank,)
        object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "Symbol") -> bool:
        return self.sort_key() < other.sort_key()

    @property
    def is_polynomial(self) -> bool:
        """True for the unit and bare monomials (the polynomial sector)."""
        return self.tag in (_ONE, _MONO)

    def iter_factors(self) -> Iterator["Symbol"]:
        """Top-level product factors (the symbol itself if not a product)."""
        if self.tag == _PROD:
            yield from self.factors
        else:
            yield self

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"<{to_text(self)}>"


XI = Symbol(_XI)
ONE = Symbol(_ONE)


def monomial(k: Sequence[int], d: Optional[int] = None) -> Symbol:
    """Monomial ``X^k``; ``k`` has length d+1 with the time index first."""
    if d is not None:
        k = _check_multiindex(k, d)
    else:
        k = tuple(int(v) for v in k)
        if any(v < 0 for v in k):
            raise StructureError(f"negative multiindex entry in {k}")
    if all(v == 0 for v in k):
        return ONE
    return Symbol(_MONO, k=k)


def x_power(i: int, d: int, n: int = 1) -> Symbol:
    """The coordinate monomial ``X_i^n`` (i = 0 is time)."""
    if not 0 <= i <= d:
        raise StructureError(f"coordinate index {i} outside 0..{d}")
    k = [0] * (d + 1)
    k[i] = n
    return monomial(k)


def integral(child: Optional[Symbol]) -> Optional[Symbol]:
    """Apply ``I``; zero (None) on the polynomial sector and on zero."""
    if child is None or child.is_polynomial:
        return None
    return Symbol(_INT, child=child)


def ext(channel: int, child: Optional[Symbol], d: int) -> Optional[Symbol]:
    """Apply ``E_channel``; zero outside the open homogeneity sector (-2, 0).

    The sector is open: symbols whose homogeneity equals an endpoint exactly
    (no kappa correction) are annihilated as well.
    """
    if child is None:
        return None
    if channel < 1:
        raise StructureError(f"E channel must be >= 1, got {channel}")
    h = homogeneity(child, d)
    if not (Homogeneity(-2) < h < Homogeneity(0)):
        return None
    return Symbol(_EXT, child=child, channel=channel)


def product(factors: Iterable[Optional[Symbol]]) -> Optional[Symbol]:
    """Flat commutative product: flatten, absorb units, merge monomials, sort."""
    flat: list[Symbol] = []
    for f in factors:
        if f is None:
            return None
        flat.extend(f.iter_factors())
    mono_k: Optional[list[int]] = None
    rest: list[Symbol] = []
    for f in flat:
        if f.tag == _ONE:
            continue
        if f.tag == _MONO:
            if mono_k is None:
                mono_k = list(f.k)
            else:
                if len(f.k) != len(mono_k):
                    raise StructureError("mixing multiindex lengths in a product")
                mono_k = [a + b for a, b in zip(mono_k, f.k)]
        else:
            rest.append(f)
    if mono_k is not None and any(mono_k):
        rest.append(Symbol(_MONO, k=tuple(mono_k)))
    if not rest:
        return ONE
    rest.sort(key=Symbol.sort_key)
    if len(rest) == 1:
        return rest[0]
    return Symbol(_PROD, factors=tuple(rest))


@lru_cache(maxsize=None)
def _symbol_product(a: Symbol, b: Symbol) -> Optional[Symbol]:
    # one cache: the same factor pairs recur across coproducts and powers
    return product([a, b])


def power(base: Optional[Symbol], n: int) -> Optional[Symbol]:
    """n-fold product of ``base`` (n >= 0; n = 0 gives the unit)."""
    if n < 0:
        raise StructureError(f"negative power {n}")
    if n == 0:
        return ONE
    if base is None:
        return None
    return product([base] * n)


def leg(channel: int, d: int) -> Optional[Symbol]:
    """The leg I(Xi) for channel 0, its decoration E_channel(I(Xi)) otherwise."""
    rsi = integral(XI)
    return rsi if channel == 0 else ext(channel, rsi, d)


def leg_channel(sym: Symbol) -> Optional[int]:
    """0 for I(Xi), i for E_i(I(Xi)), None for a symbol that is not a leg."""
    # a flat tag check: display_name classifies every factor of every term
    if sym.tag == _INT:
        return 0 if sym.child.tag == _XI else None
    if sym.tag == _EXT and sym.child.tag == _INT and sym.child.child.tag == _XI:
        return sym.channel
    return None


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class Linear:
    """Finite linear combination: ``terms`` maps basis elements to non-zero
    coefficients.  Subclasses give ``_coerce`` (how a coefficient is read)
    and a static ``_pair_product`` (None for zero; symbols multiply through
    the one cached ``_symbol_product``); sums, scaling and products follow."""

    __slots__ = ("terms",)
    _coerce = Fraction

    def __init__(self, terms: Optional[Mapping] = None) -> None:
        self.terms: dict = {}
        for key, c in (terms or {}).items():
            self.add(key, c)

    def add(self, key, c) -> None:
        self._accumulate(key, self._coerce(c))

    def _accumulate(self, key, c) -> None:
        # c is read already; the accumulation is structural: a coefficient
        # that cancels only after simplification stays until normalised
        if key in self.terms:
            c = self.terms[key] + c
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other: "Linear") -> "Linear":
        out = type(self)()
        out.terms = dict(self.terms)
        for key, c in other.terms.items():
            out._accumulate(key, c)
        return out

    def scaled(self, c) -> "Linear":
        c = self._coerce(c)       # by zero, every product drops out
        return type(self)({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Linear") -> "Linear":
        out = type(self)()
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                p = self._pair_product(a, b)
                if p is not None:
                    out._accumulate(p, ca * cb)
        return out

    def __len__(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# Grading operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def homogeneity(sym: Symbol, d: int) -> Homogeneity:
    """Exact homogeneity of a canonical symbol in spatial dimension d."""
    sc = Scaling(d)
    if sym.tag == _XI:
        return sc.noise_homogeneity()
    if sym.tag == _ONE:
        return Homogeneity(0)
    if sym.tag == _MONO:
        return Homogeneity(sc.degree(sym.k))
    if sym.tag == _INT:
        return homogeneity(sym.child, d) + Homogeneity(2)
    if sym.tag == _EXT:
        return homogeneity(sym.child, d)
    if sym.tag == _PROD:
        h = Homogeneity(0)
        for f in sym.factors:
            h = h + homogeneity(f, d)
        return h
    raise StructureError(f"unknown symbol tag {sym.tag!r}")


# ---------------------------------------------------------------------------
# Text form (canonical grammar; from_text inverts to_text)
# ---------------------------------------------------------------------------

def _mono_text(k: tuple[int, ...]) -> str:
    parts = []
    for i, n in enumerate(k):
        if n == 1:
            parts.append(f"X{i}")
        elif n > 1:
            parts.append(f"X{i}^{n}")
    return "*".join(parts)


def to_text(sym: Symbol) -> str:
    """Canonical grammar text: ``Xi``, ``One``, ``X0..``, ``I(..)``, ``E(..)``, ``*``, ``^n``."""
    if sym.tag == _XI:
        return "Xi"
    if sym.tag == _ONE:
        return "One"
    if sym.tag == _MONO:
        return _mono_text(sym.k)
    if sym.tag == _INT:
        return f"I({to_text(sym.child)})"
    if sym.tag == _EXT:
        ch = "" if sym.channel == 1 else str(sym.channel)
        return f"E{ch}({to_text(sym.child)})"
    # product: group equal consecutive factors into powers
    parts = []
    for f, grp in itertools.groupby(sym.factors):
        n = len(list(grp))
        base = to_text(f)
        parts.append(base if n == 1 else f"{base}^{n}")
    return "*".join(parts)


def from_text(text: str, d: int) -> tuple[Optional[Symbol], list[str]]:
    """Read :func:`to_text`'s grammar: the canonical symbol (None for zero)
    and one note for each ``I`` or ``E`` that sends a non-zero argument to
    zero.

    The text is read through ``ast`` once ``^n`` is a power: the names
    ``Xi``, ``One`` and ``X<i>`` (i <= d), ``*``, ``^`` with a non-negative
    integer, and one-argument calls ``I(..)``, ``E(..)`` and ``E<i>(..)``.
    """
    def bad(what: str) -> StructureError:
        return StructureError(f"cannot read symbol {text!r}: {what}")

    # only ^ spells a power, and a parenthesis only opens I(..) or E<i>(..)
    stray = re.search(r"\*\*|,|(?<!\w)\(|[^\x00-\x7f]", text)
    if stray:
        raise bad(f"unexpected {stray[0]!r}")
    src = re.sub(r"\^(\d+)(?![\w.])", lambda m: f"**{int(m[1])}",
                 " ".join(text.split()))
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise bad(exc.msg) from None
    notes: list[str] = []

    def ev(node) -> Optional[Symbol]:
        if isinstance(node, ast.Name) and node.id in ("Xi", "One"):
            return XI if node.id == "Xi" else ONE
        coord = isinstance(node, ast.Name) and re.fullmatch(r"X(\d+)",
                                                            node.id)
        if coord:
            if int(coord[1]) > d:
                raise bad(f"coordinate {node.id} outside dimension {d}")
            return x_power(int(coord[1]), d)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return product([ev(node.left), ev(node.right)])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and isinstance(node.right, ast.Constant) \
                and type(node.right.value) is int:
            return power(ev(node.left), node.right.value)
        head = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and len(node.args) == 1 and not node.keywords \
            and re.fullmatch(r"I|E(\d*)", node.func.id)
        if head:
            inner = ev(node.args[0])
            if head[0] == "I":
                out = integral(inner)
                if out is None and inner is not None:
                    notes.append("I(%s) = 0: the integration symbol vanishes "
                                 "on the polynomial sector" % to_text(inner))
                return out
            channel = int(head[1] or 1)
            out = ext(channel, inner, d)
            if out is None and inner is not None:
                notes.append("E%d(%s) = 0: argument outside the (-2, 0) "
                             "homogeneity sector" % (channel, to_text(inner)))
            return out
        raise bad("unexpected %r" % ast.get_source_segment(
            src, node).replace("**", "^"))

    return ev(tree.body), notes


# -- compact display codes for the common trees ------------------------------

def _legs_profile(sym: Symbol) -> Optional[tuple[int, int]]:
    """(#I(Xi) legs, #E_i(I(Xi)) legs) when sym is a product of such legs."""
    factors = sym.factors or (sym,)
    deco = 0
    for f in factors:
        ch = leg_channel(f)
        if ch is None:
            return None
        deco += ch > 0
    return (len(factors) - deco, deco)


_LEG_NAMES = {(1, 0): "RSI", (0, 1): "RSoI"}
_PAIR_BASE = {1: "RSI", 2: "RSV", 3: "RSW"}
_INT_BASE = {1: "RSII", 2: "RSY", 3: "RSIW"}
_COMPOSITE_BASE = {(3, 2): "RSWW", (3, 1): "RSVW", (2, 2): "RSWV",
                   (2, 1): "RSVV", (1, 2): "RSWI", (1, 1): "RSVI"}


def display_name(sym: Symbol) -> str:
    """Compact code for the common trees; canonical grammar text otherwise.

    The codes follow a fixed house scheme: RSI = I(Xi), RSV = I(Xi)^2,
    RSW = I(Xi)^3, an extra leading I is written RSII / RSY / RSIW, composite
    products I(inner)*outer get two-letter codes by (inner, outer) leg counts,
    and each substitution of an I(Xi) leg by E(I(Xi)) appends an ``o``.
    """
    if sym.tag in (_XI, _ONE, _MONO):
        return to_text(sym)
    prof = _legs_profile(sym)
    if prof is not None:
        p, q = prof
        total = p + q
        if total == 1:
            return _LEG_NAMES[prof]
        if total in _PAIR_BASE:
            return _PAIR_BASE[total] + "o" * q
    if sym.tag == _INT:
        prof = _legs_profile(sym.child)
        if prof is not None:
            p, q = prof
            total = p + q
            if total in _INT_BASE:
                return _INT_BASE[total] + "o" * q
    if sym.tag == _PROD:
        # composite I(legs)*legs: exactly one non-leg factor, itself I of
        # legs; the outer legs must all be plain
        chans = [leg_channel(f) for f in sym.factors]
        deep = [f for f, ch in zip(sym.factors, chans) if ch is None]
        if len(deep) == 1 and deep[0].tag == _INT:
            inner_prof = _legs_profile(deep[0].child)
            outer = [ch for ch in chans if ch is not None]
            if inner_prof is not None and not any(outer):
                base = _COMPOSITE_BASE.get((sum(inner_prof), len(outer)))
                if base is not None:
                    return base + "o" * inner_prof[1]
        # products with a monomial factor: name the rest, append the monomial
        monos = [f for f in sym.factors if f.tag == _MONO]
        if len(monos) == 1:
            rest = product([f for f in sym.factors if f.tag != _MONO])
            rest_name = display_name(rest)
            if not rest_name.startswith(("I(", "E(")):
                return f"{rest_name}*{to_text(monos[0])}"
    return to_text(sym)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    symbol: Symbol
    name: str
    hom: Homogeneity


@dataclass(frozen=True)
class SymbolTable:
    """Generated graded symbol set with deterministic order and lookups.

    Rows are sorted by (homogeneity, structural order).  ``lookup`` takes a
    symbol, its grammar text or its display code; a code that names several
    rows (``o`` does not say which channel) raises KeyError listing them.
    """

    d: int
    cutoff: Homogeneity
    n_channels: int
    rows: tuple[TableRow, ...]

    def __iter__(self) -> Iterator[TableRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(r.symbol for r in self.rows)

    def lookup(self, key: Union[str, Symbol]) -> TableRow:
        if isinstance(key, Symbol):
            for r in self.rows:
                if r.symbol == key:
                    return r
            raise KeyError(f"symbol {key!r} not in table")
        rows = [r for r in self.rows if key in (r.name, to_text(r.symbol))]
        if len(rows) > 1:
            raise KeyError(f"display code {key!r} names {len(rows)} rows: "
                           + ", ".join(to_text(r.symbol) for r in rows))
        if not rows:
            raise KeyError(f"name {key!r} not in table")
        return rows[0]

    def __contains__(self, sym: Symbol) -> bool:
        return any(r.symbol == sym for r in self.rows)

    def row_patterns(self) -> tuple[TableRow, ...]:
        """Rows with spatial-coordinate orbits collapsed to the X1 representative.

        A row involving a monomial in X2..Xd is reported once, via the symbol
        with every spatial index replaced by 1 (time X0 is kept distinct).
        """
        seen: dict[Symbol, TableRow] = {}
        for r in self.rows:
            rep = _spatial_representative(r.symbol, self.d)
            if rep not in seen:
                seen[rep] = TableRow(rep, display_name(rep), r.hom)
        return tuple(seen.values())


def _spatial_representative(sym: Symbol, d: int) -> Symbol:
    if sym.tag == _MONO:
        k = sym.k
        rep = [k[0], sum(k[1:])] + [0] * (d - 1)
        return monomial(rep)
    if sym.tag == _INT:
        return Symbol(_INT, child=_spatial_representative(sym.child, d))
    if sym.tag == _EXT:
        return Symbol(_EXT, child=_spatial_representative(sym.child, d),
                      channel=sym.channel)
    if sym.tag == _PROD:
        return product(_spatial_representative(f, d) for f in sym.factors)
    return sym


def _decorations(sym: Symbol, channels: Sequence[int], d: int) -> set[Symbol]:
    """All symbols obtained by replacing I(Xi) occurrences with E_i(I(Xi)).

    Substitution sites are I(Xi) appearing as a product factor (at top level
    or one level under an I) or as the direct argument of an I.  A run of
    n equal product factors takes each multiset of n of its variants once.
    """
    rsi = integral(XI)
    legs = [rsi] + [s for ch in channels if (s := ext(ch, rsi, d))]

    def variants(node: Symbol, depth: int) -> list[Symbol]:
        if node == rsi and depth <= 1:
            return legs
        if node.tag == _INT:
            return [s for v in variants(node.child, depth + 1)
                    if (s := integral(v)) is not None]
        if node.tag == _PROD:
            runs = [itertools.combinations_with_replacement(
                        variants(f, depth), len(list(run)))
                    for f, run in itertools.groupby(node.factors)]
            return [p for combo in itertools.product(*runs)
                    if (p := product(itertools.chain(*combo))) is not None]
        return [node]

    return set(variants(sym, 0))


def _within(members: Iterable[Symbol], r: int, bound: Homogeneity,
            d: int) -> Iterator[tuple[Symbol, ...]]:
    """Multisets of r members with homogeneity sum at most ``bound``, walked
    in homogeneity order: a branch ends at the first member whose r-fold
    completion exceeds it, as every later member weighs at least as much."""
    members = sorted(members, key=lambda m: homogeneity(m, d))
    homs = [homogeneity(m, d) for m in members]

    def walk(start: int, left: int, h: Homogeneity, picked: tuple):
        if not left:
            yield picked
            return
        for i in range(start, len(members)):
            if Homogeneity(h.r + left * homs[i].r,
                           h.s + left * homs[i].s) > bound:
                return
            yield from walk(i, left - 1, h + homs[i], picked + (members[i],))

    return walk(0, r, Homogeneity(0), ())


def enumerate_symbols(d: int, cutoff: Homogeneity,
                      n_channels: int = 0) -> SymbolTable:
    """Generate the graded symbol set for dimension d up to ``cutoff``.

    The base set U is the smallest set containing the unit, the coordinate
    monomials and I(Xi) that is closed under tau1*tau2*tau3 -> I(tau1*tau2*tau3)
    (within an internal homogeneity bound sufficient for products of up to
    three factors to reach ``cutoff``).  The returned rows are the noise symbol
    plus all products of at most three U-members with homogeneity <= cutoff;
    with ``n_channels >= 1`` every symbol additionally contributes its
    E-decorated family (I(Xi) legs replaced by E_i(I(Xi))).

    Each candidate is built once.  Homogeneity adds over product factors
    (One counts 0, monomials merge additively), so products walk their
    factors in homogeneity order and end a branch once no completion stays
    within bound; each closure round of U tries only the triples holding a
    member the previous round added; equal factors take each multiset of
    their decorations once.
    """
    if not isinstance(cutoff, Homogeneity):
        cutoff = Homogeneity(cutoff)
    # internal bound for U: a factor tau can only appear in a product within
    # cutoff if tau + 2*hom(I(Xi)) <= cutoff, and hom(I(Xi)) = (-d/2, -1)+... ;
    # the loosest case is d=3 with two I(Xi) companions at (-1/2,-1) each.
    u_cut = Homogeneity(cutoff.r + 1, cutoff.s + 2)

    u_set: set[Symbol] = {ONE}
    u_set.update(x_power(i, d) for i in range(d + 1))
    rsi = integral(XI)
    if homogeneity(rsi, d) <= u_cut:
        u_set.add(rsi)

    new = set(u_set)
    while new:
        grown = {integral(product(combo)) for combo in
                 _within(u_set, 3, u_cut - Homogeneity(2), d)
                 if not new.isdisjoint(combo)}
        new = grown - u_set - {None}       # I of a polynomial is zero
        u_set |= new

    symbols: set[Symbol] = set()
    if Scaling(d).noise_homogeneity() <= cutoff:
        symbols.add(XI)
    for r in (1, 2, 3):
        symbols.update(map(product, _within(u_set, r, cutoff, d)))

    if n_channels >= 1:
        channels = list(range(1, n_channels + 1))
        for sym in list(symbols):
            symbols.update(_decorations(sym, channels, d))

    rows = [TableRow(s, display_name(s), homogeneity(s, d)) for s in symbols]
    rows.sort(key=lambda r: (r.hom, r.symbol.sort_key()))
    return SymbolTable(d=d, cutoff=cutoff, n_channels=n_channels,
                       rows=tuple(rows))

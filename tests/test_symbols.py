"""Symbol algebra: frozen homogeneity table, canonical form, enumeration."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhnspde.symbols
from fhnspde.symbols import (
    ONE,
    XI,
    Homogeneity,
    Scaling,
    StructureError,
    Symbol,
    display_name,
    enumerate_symbols,
    ext,
    from_text,
    homogeneity,
    integral,
    monomial,
    power,
    product,
    to_text,
    x_power,
)
from reference import common_trees, xi_count

H = Homogeneity
F = Fraction


# ---------------------------------------------------------------------------
# Frozen homogeneity table (exact (r, s) pairs, s = kappa coefficient).
# Keyed by tree name; value = {d: (r, s)} with alpha0 = -(d+2)/2 - kappa.
# ---------------------------------------------------------------------------

TABLE = {
    #          d=3 (alpha0 = -5/2-k)            d=2 (alpha0 = -2-k)
    "Xi":   {3: (F(-5, 2), -1), 2: (-2, -1)},         # alpha0
    "RSW":  {3: (F(-3, 2), -3), 2: (0, -3)},          # 3*alpha0 + 6
    "RSV":  {3: (-1, -2), 2: (0, -2)},                # 2*alpha0 + 4
    "RSWW": {3: (F(-1, 2), -5), 2: (2, -5)},          # 5*alpha0 + 12
    "RSI":  {3: (F(-1, 2), -1), 2: (0, -1)},          # alpha0 + 2
    "RSVW": {3: (0, -4), 2: (2, -4)},                 # 4*alpha0 + 10
    "RSWV": {3: (0, -4), 2: (2, -4)},                 # 4*alpha0 + 10
    "RSIW": {3: (F(1, 2), -3), 2: (2, -3)},           # 3*alpha0 + 8
    "RSVV": {3: (F(1, 2), -3), 2: (2, -3)},           # 3*alpha0 + 8
    "RSWI": {3: (F(1, 2), -3), 2: (2, -3)},           # 3*alpha0 + 8
    "RSY":  {3: (1, -2), 2: (2, -2)},                 # 2*alpha0 + 6
    "RSVI": {3: (1, -2), 2: (2, -2)},                 # 2*alpha0 + 6
    "RSII": {3: (F(3, 2), -1), 2: (2, -1)},           # alpha0 + 4
}


@pytest.mark.parametrize("name", sorted(TABLE))
@pytest.mark.parametrize("d", [2, 3])
def test_frozen_homogeneity_table(name, d):
    sym = common_trees(d)[name]
    r, s = TABLE[name][d]
    assert homogeneity(sym, d) == H(r, s)


@pytest.mark.parametrize("d", [2, 3])
def test_polynomial_and_product_rows(d):
    assert homogeneity(ONE, d) == H(0)
    assert homogeneity(x_power(1, d), d) == H(1)
    assert homogeneity(x_power(0, d), d) == H(2)  # time counts twice
    rsv_x = product([common_trees(d)["RSV"], x_power(1, d)])
    # 2*alpha0 + 5
    assert homogeneity(rsv_x, d) == H(2 * F(-(d + 2), 2) + 5, -2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_noise_homogeneity_formula(d):
    assert homogeneity(XI, d) == H(F(-(d + 2), 2), -1)


def test_e_preserves_homogeneity():
    rsi = common_trees(3)["RSI"]
    assert homogeneity(ext(1, rsi, 3), 3) == homogeneity(rsi, 3)


def test_homogeneity_kappa_evaluation():
    h = homogeneity(common_trees(3)["RSW"], 3)
    assert h.as_float(0.01) == pytest.approx(-1.5 - 0.03)


def test_homogeneity_order_is_lexicographic():
    # kappa -> 0+ limit: equal r parts are ordered by the kappa coefficient
    assert H(0, -4) < H(0, -1) < H(0) < H(F(1, 2), -3)
    assert H(F(-1, 2), -5) < H(F(-1, 2), -1)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_product_flatten_and_sort():
    rsi = integral(XI)
    a = product([rsi, product([rsi, rsi])])
    b = product([rsi, rsi, rsi])
    assert a == b
    assert a.tag == "prod" and len(a.factors) == 3


def test_product_commutative():
    rsi = integral(XI)
    y = integral(product([rsi, rsi]))
    assert product([rsi, y]) == product([y, rsi])


def test_unit_absorbed_and_empty_product_is_unit():
    rsi = integral(XI)
    assert product([ONE, rsi, ONE]) == rsi
    assert product([]) == ONE
    assert power(rsi, 0) == ONE


def test_monomials_merge():
    m = product([x_power(1, 3), x_power(1, 3), x_power(2, 3)])
    assert m == monomial([0, 2, 1, 0])
    assert monomial([0, 0, 0, 0]) == ONE


def test_integral_kills_polynomials():
    assert integral(ONE) is None
    assert integral(monomial([1, 0, 0, 0])) is None
    assert integral(None) is None
    assert integral(XI) is not None


def test_e_sector_rule():
    rsi = integral(XI)
    # in sector for both dimensions
    assert ext(1, rsi, 3) is not None
    assert ext(1, rsi, 2) is not None
    # homogeneity 0 exactly (open boundary) and positives are annihilated
    assert ext(1, ONE, 3) is None
    assert ext(1, x_power(1, 3), 3) is None
    assert ext(1, integral(rsi), 3) is None        # 3/2 - k > 0
    # below -2 is annihilated
    assert ext(1, XI, 3) is None                   # -5/2 - k < -2
    # d=2: RSV at (0,-2) is still strictly inside the open sector
    assert ext(1, power(rsi, 2), 2) is not None
    # zero stays zero, channels are 1-based
    assert ext(1, None, 3) is None
    with pytest.raises(StructureError):
        ext(0, rsi, 3)


def test_zero_propagates_through_products():
    assert product([integral(ONE), XI]) is None
    assert power(None, 2) is None


def test_structure_errors():
    with pytest.raises(StructureError):
        monomial([1, 0], d=3)  # wrong length
    with pytest.raises(StructureError):
        monomial([-1, 0, 0, 0])
    with pytest.raises(StructureError):
        Scaling(0)
    with pytest.raises(StructureError):
        power(XI, -1)


def test_canonicalize_raw_trees():
    d = 3
    assert from_text("I(Xi)*I(Xi)^2", d) == (common_trees(d)["RSW"], [])
    assert from_text("X1^0", d)[0] == ONE
    assert from_text("I(One)", d)[0] is None
    assert from_text("E1(I(Xi))", d)[0] == common_trees(d)["RSoI"]
    with pytest.raises(StructureError):
        from_text("bogus", d)


def test_canonicalize_idempotent_on_symbols():
    for sym in common_trees(3).values():
        assert from_text(to_text(sym), 3) == (sym, [])


def test_xi_count():
    ct = common_trees(3)
    assert xi_count(ct["RSI"]) == 1
    assert xi_count(ct["RSW"]) == 3
    assert xi_count(ct["RSWW"]) == 5
    assert xi_count(ct["RSoI"]) == 1
    assert xi_count(ONE) == 0


# ---------------------------------------------------------------------------
# Text form and display codes
# ---------------------------------------------------------------------------

def test_text_forms():
    ct = common_trees(3)
    assert to_text(ct["RSW"]) == "I(Xi)^3"
    assert to_text(ct["RSWW"]) == "I(Xi)^2*I(I(Xi)^3)"
    assert to_text(ct["RSoI"]) == "E(I(Xi))"
    assert to_text(ext(2, integral(XI), 3)) == "E2(I(Xi))"
    assert to_text(monomial([2, 1, 0, 0])) == "X0^2*X1"


def test_display_codes():
    ct = common_trees(3)
    for name, sym in ct.items():
        assert display_name(sym) == name
    assert display_name(product([ct["RSV"], x_power(1, 3)])) == "RSV*X1"


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_nine_patterns_at_cutoff_zero():
    t = enumerate_symbols(3, H(0), n_channels=0)
    names = sorted(r.name for r in t.row_patterns())
    assert names == sorted(
        ["Xi", "RSW", "RSV", "RSWW", "RSI", "RSVW", "RSWV", "RSV*X1", "One"])
    # three spatial copies of RSV*Xi, hence 11 concrete symbols
    assert len(t) == 11


def test_enumeration_contains_frozen_table():
    t = enumerate_symbols(3, H(F(3, 2)), n_channels=0)
    pattern_names = {r.name for r in t.row_patterns()}
    for name in TABLE:
        assert name in pattern_names
    assert "RSV*X1" in pattern_names and "X1" in pattern_names


def test_enumeration_no_channels_means_no_e_symbols():
    t = enumerate_symbols(3, H(0), n_channels=0)
    assert all("E" not in to_text(s) for s in t.symbols)


def test_enumeration_decorated_families():
    t = enumerate_symbols(3, H(0), n_channels=1)
    names = {r.name for r in t.row_patterns()}
    for name in ["RSoI", "RSVo", "RSVoo", "RSWo", "RSWoo", "RSWooo",
                 "RSWWo", "RSWWoo", "RSWWooo", "RSVWo", "RSWVo", "RSWVoo"]:
        assert name in names, name


def test_enumeration_two_channels():
    t = enumerate_symbols(3, H(F(-1, 2)), n_channels=2)
    texts = {to_text(s) for s in t.symbols}
    assert "E(I(Xi))" in texts and "E2(I(Xi))" in texts
    assert "E(I(Xi))*E2(I(Xi))" in texts


def test_enumeration_deterministic():
    a = enumerate_symbols(3, H(0), n_channels=1)
    b = enumerate_symbols(3, H(0), n_channels=1)
    assert a.rows == b.rows
    homs = [r.hom for r in a.rows]
    assert homs == sorted(homs)


def test_table_lookup():
    t = enumerate_symbols(3, H(0), n_channels=0)
    row = t.lookup("RSWW")
    assert row.symbol == common_trees(3)["RSWW"]
    assert t.lookup("I(Xi)^2*I(I(Xi)^3)").symbol == row.symbol
    assert row.symbol in t
    with pytest.raises(KeyError):
        t.lookup("RSnope")



def test_lookup_rejects_a_display_code_that_names_several_rows():
    t = enumerate_symbols(3, H(F(1, 2)), n_channels=2)
    texts = {to_text(r.symbol) for r in t.rows if r.name == "RSWo"}
    assert texts == {"I(Xi)^2*E(I(Xi))", "I(Xi)^2*E2(I(Xi))"}
    with pytest.raises(KeyError) as err:
        t.lookup("RSWo")
    assert all(text in str(err.value) for text in texts)
    # canonical texts and codes that name one row still resolve
    for text in texts:
        assert to_text(t.lookup(text).symbol) == text
    assert t.lookup("RSW").symbol == common_trees(3)["RSW"]


def test_lookup_resolves_every_row_by_symbol_text_and_code():
    t = enumerate_symbols(3, H(F(1, 2)), n_channels=2)
    by_code: dict = {}
    for r in t.rows:
        by_code.setdefault(r.name, []).append(r)
        assert t.lookup(r.symbol) == r
        assert t.lookup(to_text(r.symbol)) == r
    several = {code for code, rows in by_code.items() if len(rows) > 1}
    assert several
    for code, rows in by_code.items():
        if code in several:
            with pytest.raises(KeyError, match="names %d rows" % len(rows)):
                t.lookup(code)
        else:
            assert t.lookup(code) == rows[0]
    outside = enumerate_symbols(3, H(F(3, 2)), n_channels=2).symbols
    assert [s in t for s in outside] == [s in t.symbols for s in outside]
    assert sum(s in t for s in outside) == len(t)


# ---------------------------------------------------------------------------
# Enumeration against a reference: the re-scanning closure, every decoration
# tuple and every product, with duplicates dropped only by sets
# ---------------------------------------------------------------------------

def _reference_decorations(sym, channels, d):
    rsi = integral(XI)

    def variants(node, depth):
        if node == rsi and depth <= 1:
            return [node] + [s for ch in channels
                             if (s := ext(ch, rsi, d)) is not None]
        if node.tag == "int":
            return [s for v in variants(node.child, depth + 1)
                    if (s := integral(v)) is not None]
        if node.tag == "prod":
            choice_lists = [variants(f, depth) for f in node.factors]
            return [p for combo in itertools.product(*choice_lists)
                    if (p := product(combo)) is not None]
        return [node]

    return set(variants(sym, 0))


def _reference_rows(d, cutoff, n_channels):
    u_cut = H(cutoff.r + 1, cutoff.s + 2)
    u_set = {ONE, *(x_power(i, d) for i in range(d + 1))}
    rsi = integral(XI)
    if homogeneity(rsi, d) <= u_cut:
        u_set.add(rsi)
    changed = True
    while changed:
        changed = False
        members = sorted(u_set, key=Symbol.sort_key)
        for combo in itertools.combinations_with_replacement(members, 3):
            p = product(combo)
            if p is None or p.is_polynomial:
                continue
            s = integral(p)
            if s is not None and s not in u_set \
                    and homogeneity(s, d) <= u_cut:
                u_set.add(s)
                changed = True
    symbols = set()
    if Scaling(d).noise_homogeneity() <= cutoff:
        symbols.add(XI)
    members = sorted(u_set, key=Symbol.sort_key)
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(members, r):
            p = product(combo)
            if p is not None and homogeneity(p, d) <= cutoff:
                symbols.add(p)
    if n_channels >= 1:
        channels = list(range(1, n_channels + 1))
        for sym in list(symbols):
            symbols.update(_reference_decorations(sym, channels, d))
    rows = [(s, display_name(s), homogeneity(s, d)) for s in symbols]
    rows.sort(key=lambda r: (r[2], r[0].sort_key()))
    return rows


_ORACLE_CONFIGS = [
    (d, cutoff, n) for d in (2, 3)
    for cutoff in (F(-3), F(-1), F(0), F(1, 2), F(1), F(3, 2))
    for n in range(4) if (d, cutoff, n) != (3, F(3, 2), 3)]


@pytest.mark.parametrize("d,cutoff,n_channels", _ORACLE_CONFIGS)
def test_enumeration_matches_reference(d, cutoff, n_channels):
    t = enumerate_symbols(d, H(cutoff), n_channels=n_channels)
    got = [(r.symbol, r.name, r.hom) for r in t.rows]
    assert got == _reference_rows(d, H(cutoff), n_channels)


def test_enumeration_builds_each_candidate_about_once(monkeypatch):
    calls = 0
    inner = fhnspde.symbols.product

    def counting(factors):
        nonlocal calls
        calls += 1
        return inner(factors)

    monkeypatch.setattr(fhnspde.symbols, "product", counting)
    t = enumerate_symbols(3, H(F(3, 2)), n_channels=2)
    assert len(t) == 1926
    # the full re-scan with every decoration tuple made 35,321 calls
    assert calls <= 6000

# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

def symbol_texts():
    """Grammar text, canonical or not, that may read as zero."""
    base = st.sampled_from(["Xi", "One", "X1", "X0", "X2^2"])

    def extend(children):
        return st.one_of(
            st.builds("I({})".format, children),
            st.builds("E{}({})".format, st.integers(1, 2), children),
            st.builds("*".join, st.lists(children, min_size=2, max_size=3)),
        )

    return st.recursive(base, extend, max_leaves=6)


@given(symbol_texts())
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(text):
    sym = from_text(text, 3)[0]
    if sym is not None:
        assert from_text(to_text(sym), 3) == (sym, [])


@given(symbol_texts(), symbol_texts())
@settings(max_examples=200, deadline=None)
def test_homogeneity_additive_and_product_commutes(a, b):
    sa, sb = from_text(a, 3)[0], from_text(b, 3)[0]
    if sa is None or sb is None:
        return
    p = product([sa, sb])
    q = product([sb, sa])
    assert p == q
    if p is not None:
        assert homogeneity(p, 3) == homogeneity(sa, 3) + homogeneity(sb, 3)
        assert xi_count(p) == xi_count(sa) + xi_count(sb)


@given(symbol_texts())
@settings(max_examples=100, deadline=None)
def test_sort_key_total_order(text):
    sym = from_text(text, 3)[0]
    if sym is None:
        return
    assert not (sym < sym)
    assert (sym.sort_key() < XI.sort_key()) != (sym == XI or XI < sym) \
        or sym == XI or True  # keys are comparable without error

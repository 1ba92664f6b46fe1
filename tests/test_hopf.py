"""Coproduct: frozen expansion table, grading exactness, group action."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from fhnspde.cli import main
from fhnspde.hopf import (
    PLUS_ONE,
    JSymbol,
    PlusElem,
    TensorSum,
    coproduct,
)
from fhnspde.symbols import (
    ONE,
    XI,
    Homogeneity,
    enumerate_symbols,
    from_text,
    homogeneity,
    integral,
    product,
    to_text,
    x_power,
)

from reference import (
    Character,
    common_trees,
    group_action,
    is_primitive_for_group,
    plus_homogeneity,
)
from test_symbols import symbol_texts

CT3 = common_trees(3)
CT2 = common_trees(2)


def ts(*terms):
    out = {}
    for left, right, *c in terms:
        coeff = Fraction(c[0]) if c else Fraction(1)
        out[(left, right)] = out.get((left, right), 0) + coeff
    return TensorSum(out)


def J(tau, d=3, i=None):
    k = [0] * (d + 1)
    if i is not None:
        k[i] = 1
    return JSymbol(k=tuple(k), tau=tau)


def P(js=(), k=None, d=3):
    return PlusElem(k=tuple(k) if k else (), js=tuple(js))


def PX(i, js=(), d=3):
    k = [0] * (d + 1)
    k[i] = 1
    return PlusElem(k=tuple(k), js=tuple(js))


# ---------------------------------------------------------------------------
# Frozen coproduct table, d = 3 (all sixteen rows of the core table)
# ---------------------------------------------------------------------------

def _frozen_rows_d3():
    ct = CT3
    x1 = x_power(1, 3)
    rows = {
        "Xi": ts((XI, PLUS_ONE)),
        "One": ts((ONE, PLUS_ONE)),
        "RSI": ts((ct["RSI"], PLUS_ONE)),
        "RSV": ts((ct["RSV"], PLUS_ONE)),
        "RSW": ts((ct["RSW"], PLUS_ONE)),
        "X1": ts((x1, PLUS_ONE), (ONE, PX(1))),
        "RSWW": ts((ct["RSWW"], PLUS_ONE),
                   (ct["RSV"], P([J(ct["RSW"])]))),
        "RSVW": ts((ct["RSVW"], PLUS_ONE),
                   (ct["RSI"], P([J(ct["RSW"])]))),
        "RSWV": ts((ct["RSWV"], PLUS_ONE),
                   (ct["RSV"], P([J(ct["RSV"])]))),
        "RSVV": ts((ct["RSVV"], PLUS_ONE),
                   (ct["RSI"], P([J(ct["RSV"])]))),
        "RSIW": ts((ct["RSIW"], PLUS_ONE),
                   (ONE, P([J(ct["RSW"])]))),
        "RSY": ts((ct["RSY"], PLUS_ONE),
                  (ONE, P([J(ct["RSV"])]))),
        "RSV*X1": ts((product([ct["RSV"], x1]), PLUS_ONE),
                     (ct["RSV"], PX(1))),
    }
    # rows whose tail recenters I(RSI): gradient terms in every spatial slot
    for name, base in [("RSWI", ct["RSV"]), ("RSVI", ct["RSI"]),
                       ("RSII", ONE)]:
        sym = ct[name]
        terms = [(sym, PLUS_ONE), (base, P([J(ct["RSI"])]))]
        for i in (1, 2, 3):
            left = product([base, x_power(i, 3)])
            terms.append((left, P([J(ct["RSI"], i=i)])))
            terms.append((base, PX(i, [J(ct["RSI"], i=i)])))
        rows[name] = ts(*terms)
    return rows


FROZEN_D3 = _frozen_rows_d3()


@pytest.mark.parametrize("name", sorted(FROZEN_D3))
def test_frozen_coproduct_rows(name):
    if name == "RSV*X1":
        tau = product([CT3["RSV"], x_power(1, 3)])
    elif name == "X1":
        tau = x_power(1, 3)
    else:
        tau = CT3[name]
    assert coproduct(tau, 3) == FROZEN_D3[name]


def test_coproduct_d2_picks_up_gradient_terms():
    # |I(Xi)^3| = -3k in two dimensions, so J_i(RSW) survives there
    ct = CT2
    terms = [(ct["RSWW"], P(d=2)), (ct["RSV"], P([J(ct["RSW"], d=2)], d=2))]
    for i in (1, 2):
        terms.append((product([ct["RSV"], x_power(i, 2)]),
                      P([J(ct["RSW"], d=2, i=i)], d=2)))
        terms.append((ct["RSV"], PX(i, [J(ct["RSW"], d=2, i=i)], d=2)))
    assert coproduct(ct["RSWW"], 2) == ts(*terms)


def test_coproduct_cache_keys_on_dimension():
    # alternate d on one symbol: each value is the one its own d computes
    tau = CT2["RSWW"]
    got = [(d, coproduct(tau, d)) for d in (2, 3, 2, 3)]
    assert got[0][1] != got[1][1]
    for d, value in got:
        coproduct.cache_clear()
        assert value == coproduct(tau, d)


def test_coproduct_decorated_mirrors_plain():
    # E passes through the coproduct; RSoI is primitive like RSI
    assert coproduct(CT3["RSoI"], 3) == ts((CT3["RSoI"], PLUS_ONE))
    # I(Xi)*E(I(Xi)) * I(I(Xi)^2) has the same shape as RSWV with one leg swapped
    sym = product([CT3["RSVo"], integral(CT3["RSV"])])
    got = coproduct(sym, 3)
    assert got == ts((sym, PLUS_ONE), (CT3["RSVo"], P([J(CT3["RSV"])])))


def test_monomial_coproduct_binomial():
    x1sq = x_power(1, 3, 2)
    got = coproduct(x1sq, 3)
    assert got == ts((x1sq, PLUS_ONE), (ONE, P(k=(0, 2, 0, 0))),
                     (x_power(1, 3), PX(1), 2))


def test_primitivity():
    for name in ["Xi", "RSI", "RSV", "RSW", "RSoI"]:
        assert is_primitive_for_group(CT3[name], 3), name
    for name in ["RSWW", "RSVW", "RSWV", "RSII", "RSY", "RSIW",
                 "RSWI", "RSVI", "RSVV"]:
        assert not is_primitive_for_group(CT3[name], 3), name
    assert not is_primitive_for_group(x_power(1, 3), 3)


def test_display_text():
    assert coproduct(CT3["RSVW"], 3).text() == "RSVW (x) 1 + RSI (x) J(RSW)"
    assert coproduct(CT3["RSY"], 3).text() == "RSY (x) 1 + One (x) J(RSV)"


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

@given(symbol_texts())
@settings(max_examples=120, deadline=None)
def test_counit(text):
    tau = from_text(text, 3)[0]
    if tau is None:
        return
    unit_terms = {left: c for (left, right), c in coproduct(tau, 3).terms.items()
                  if right == PLUS_ONE}
    assert unit_terms == {tau: Fraction(1)}


@given(symbol_texts())
@settings(max_examples=120, deadline=None)
def test_grading_exact_per_term(text):
    tau = from_text(text, 3)[0]
    if tau is None:
        return
    h = homogeneity(tau, 3)
    for (left, right), c in coproduct(tau, 3).terms.items():
        assert homogeneity(left, 3) + plus_homogeneity(right, 3) == h
        if right != PLUS_ONE:
            assert homogeneity(left, 3) < h


@given(symbol_texts(), symbol_texts())
@settings(max_examples=80, deadline=None)
def test_multiplicativity(text_a, text_b):
    a, b = from_text(text_a, 3)[0], from_text(text_b, 3)[0]
    if a is None or b is None:
        return
    ab = product([a, b])
    if ab is None:
        return
    assert coproduct(ab, 3) == coproduct(a, 3) * coproduct(b, 3)


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------

def test_group_action_shifts_by_character():
    w = 2.5
    g = Character(j_values={J(CT3["RSW"]): w})
    got = group_action(g, CT3["RSVW"], 3)
    assert got == {CT3["RSVW"]: Fraction(1), CT3["RSI"]: w}


def test_group_action_trivial_character_is_identity():
    g = Character()
    for name in ["RSWW", "RSWI", "RSII"]:
        assert group_action(g, CT3[name], 3) == {CT3[name]: Fraction(1)}


def test_group_action_with_point_and_gradient_values():
    v0, v1 = 0.7, -1.3
    g = Character(j_values={J(CT3["RSI"]): v0, J(CT3["RSI"], i=1): v1},
                  point=(0.0, 2.0, 0.0, 0.0))
    got = group_action(g, CT3["RSII"], 3)
    # One x J + X1 x J1 + One x X1*J1  evaluated at the point
    assert got[ONE] == pytest.approx(v0 + 2.0 * v1)
    assert got[x_power(1, 3)] == pytest.approx(v1)
    assert got[CT3["RSII"]] == 1


def test_group_action_symbolic_scalars():
    import sympy
    w = sympy.Symbol("w")
    g = Character(j_values={J(CT3["RSV"]): w})
    got = group_action(g, CT3["RSWV"], 3)
    assert got[CT3["RSV"]] == w
    assert got[CT3["RSWV"]] == 1


def test_tensor_sum_algebra():
    t = ts((XI, PLUS_ONE))
    assert (t + t.scaled(-1)) == TensorSum()
    assert t.scaled(2).terms[(XI, PLUS_ONE)] == 2
    assert TensorSum().text() == "0"


def test_shared_coproducts_survive_every_use(tmp_path, monkeypatch, capsys):
    # coproduct is memoised, so every caller below holds the shared values:
    # none of these uses may change them
    monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path))
    rows = enumerate_symbols(3, Homogeneity(Fraction(1, 2)), n_channels=2).rows
    assert len(rows) == 421
    held = [(row.symbol, coproduct(row.symbol, 3)) for row in rows]
    texts = [t.text() for _, t in held]
    js = {j for _, t in held for (_, right) in t.terms for j in right.js}
    g = Character(j_values={j: Fraction(1, 3) for j in js},
                  point=(0.5, -1.0, 2.0, 0.25))
    for i, (sym, t) in enumerate(held):
        group_action(g, sym, 3)
        is_primitive_for_group(sym, 3)
        t * held[i - 1][1]
        t + t.scaled(-1)
        t.map_left(integral)
        if i % 60 == 0:
            assert main(["coproduct", to_text(sym), "--dim", "3"]) == 0
    capsys.readouterr()
    coproduct.cache_clear()
    assert [t.text() for _, t in held] == texts
    assert [coproduct(sym, 3).text() for sym, _ in held] == texts

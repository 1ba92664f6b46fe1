"""Renormalisation group: extraction counts, map identities, counterterms."""

import itertools
import random

import pytest
import sympy

from fhnspde.kernels import assemble_C

from fhnspde.renorm import (
    Combo,
    CubicPolynomial,
    RenormMap,
    UnsupportedSymbolError,
    classify_chaos_zero,
    composite_family,
    constant_symbol,
    default_constants,
    divergent_patterns,
    fixed_point_expansion,
    pair_family,
    renormalized_nonlinearity,
)
from fhnspde.renorm import v_symbols
from fhnspde.solver import QSpec, SystemSpec
from fhnspde.symbols import (
    ONE,
    XI,
    ext,
    integral,
    product,
    to_text,
)
from reference import common_trees, generator_action

CT = common_trees(3)
C1, C1p, C1pp, C2 = sympy.symbols("C1 C1p C1pp C2")
U = sympy.Symbol("u")
V1, = v_symbols(1)


def pat_pair():
    return product([CT["RSI"], CT["RSI"]])


def pat_comp():
    return product([integral(CT["RSV"]), CT["RSV"]])


def combo(**named):
    return Combo({CT[k] if k in CT else ONE: v for k, v in named.items()})


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_pair_family_single_channel():
    fam = pair_family(3, 1)
    assert fam == [CT["RSV"], CT["RSVo"], CT["RSVoo"]]
    assert pair_family(3, 0) == [CT["RSV"]]


def test_composite_family_count():
    fam = composite_family(3, 1)
    assert len(fam) == 9
    assert pat_comp() in fam
    assert len(set(fam)) == 9
    assert composite_family(3, 2)[0] == pat_comp()
    assert len(composite_family(3, 2)) == 36  # six pairs squared


def test_divergent_patterns():
    assert divergent_patterns(3, 1) == [CT["RSV"], pat_comp()]
    assert divergent_patterns(2, 1) == [common_trees(2)["RSV"]]


def test_constant_symbol_names():
    assert constant_symbol(CT["RSV"]) == C1
    assert constant_symbol(CT["RSVo"]) == C1p
    assert constant_symbol(CT["RSVoo"]) == C1pp
    assert constant_symbol(pat_comp()) == C2
    assert str(constant_symbol(product([integral(CT["RSVo"]), CT["RSV"]]))) \
        == "C2p"
    assert str(constant_symbol(product([integral(CT["RSV"]), CT["RSVo"]]))) \
        == "C2q"


# ---------------------------------------------------------------------------
# Extraction counts (frozen)
# ---------------------------------------------------------------------------

def test_pair_extraction_on_rsww():
    got = generator_action(CT["RSV"], CT["RSWW"], 3)
    assert got == Combo({CT["RSIW"]: 1, CT["RSWI"]: 3})


def test_pair_extraction_twice_on_rsww():
    once = generator_action(CT["RSV"], CT["RSWW"], 3)
    twice = Combo()
    for sym, c in once.terms.items():
        twice = twice + generator_action(CT["RSV"], sym, 3).scaled(c)
    assert twice == Combo({CT["RSII"]: 6})


def test_composite_extraction_on_rsww():
    assert generator_action(pat_comp(), CT["RSWW"], 3) \
        == Combo({CT["RSI"]: 3})


def test_pair_extraction_on_rswv_kills_inner():
    # removing the inner pair leaves I(One) = 0; only the root pair survives
    assert generator_action(CT["RSV"], CT["RSWV"], 3) == Combo({CT["RSY"]: 1})


def test_composite_extraction_on_rswv():
    assert generator_action(pat_comp(), CT["RSWV"], 3) == Combo({ONE: 1})


def test_pair_extraction_on_rsvw():
    assert generator_action(CT["RSV"], CT["RSVW"], 3) \
        == Combo({CT["RSVI"]: 3})


def test_decorated_pair_extractions():
    assert generator_action(CT["RSVo"], CT["RSWoo"], 3) \
        == Combo({CT["RSoI"]: 2})
    assert generator_action(CT["RSVoo"], CT["RSWoo"], 3) \
        == Combo({CT["RSI"]: 1})
    # plain pair finds only one plain leg here
    assert generator_action(CT["RSV"], CT["RSWoo"], 3) == Combo()


def test_decorated_composite_extraction_single_site():
    # I(I(Xi)^2 E(I(Xi))) * I(Xi)^2: the undecorated composite pattern has
    # exactly one extraction site (the decorated leg cannot enter the pair)
    sigma_a = product([integral(CT["RSWo"]), CT["RSV"]])
    assert generator_action(pat_comp(), sigma_a, 3) == Combo({CT["RSoI"]: 1})


def test_extraction_zero_cases():
    assert generator_action(CT["RSV"], XI, 3) == Combo()
    assert generator_action(CT["RSV"], CT["RSI"], 3) == Combo()
    assert generator_action(pat_comp(), CT["RSIW"], 3) == Combo()


def test_unsupported_patterns():
    with pytest.raises(UnsupportedSymbolError):
        generator_action(XI, CT["RSWW"], 3)
    with pytest.raises(UnsupportedSymbolError):
        generator_action(CT["RSW"], CT["RSWW"], 3)  # triple is not a pair
    with pytest.raises(UnsupportedSymbolError):
        generator_action(CT["RSII"], CT["RSWW"], 3)


# ---------------------------------------------------------------------------
# Map identities (frozen)
# ---------------------------------------------------------------------------

def make_map(d=3, full=False):
    ct = common_trees(d)
    constants = {ct["RSV"]: C1,
                 product([integral(ct["RSV"]), ct["RSV"]]): C2}
    if full:
        constants[ct["RSVo"]] = C1p
        constants[ct["RSVoo"]] = C1pp
    return RenormMap(constants, d)


def test_map_identities():
    M = make_map()
    assert M.apply(CT["RSI"]) == Combo({CT["RSI"]: 1})
    assert M.apply(CT["RSV"]) == Combo({CT["RSV"]: 1, ONE: -C1})
    assert M.apply(CT["RSW"]) == Combo({CT["RSW"]: 1, CT["RSI"]: -3 * C1})
    assert M.apply(CT["RSWV"]) == Combo(
        {CT["RSWV"]: 1, ONE: -C2, CT["RSY"]: -C1})
    assert M.apply(CT["RSWW"]) == Combo(
        {CT["RSWW"]: 1, CT["RSI"]: -3 * C2, CT["RSWI"]: -3 * C1,
         CT["RSIW"]: -C1, CT["RSII"]: 3 * C1 ** 2})


def test_map_identity_decorated():
    M = make_map(full=True)
    assert M.apply(CT["RSWoo"]) == Combo(
        {CT["RSWoo"]: 1, CT["RSI"]: -C1pp, CT["RSoI"]: -2 * C1p})


def test_map_is_linear():
    M = make_map()
    x = Combo({CT["RSW"]: 2, CT["RSV"]: -1})
    got = M.apply(x)
    want = M.apply(CT["RSW"]).scaled(2) + M.apply(CT["RSV"]).scaled(-1)
    assert got == want


def test_map_group_inverse():
    ct = CT
    constants = {ct["RSV"]: C1,
                 product([integral(ct["RSV"]), ct["RSV"]]): C2,
                 ct["RSVo"]: C1p}
    M = RenormMap(constants, 3)
    Minv = RenormMap({p: -c for p, c in constants.items()}, 3)
    for name in ["RSWW", "RSWV", "RSVW", "RSW", "RSWoo", "RSI"]:
        assert Minv.apply(M.apply(ct[name])) == Combo({ct[name]: 1}), name


def test_map_untouched_symbols_pass_through():
    M = make_map()
    for name in ["Xi", "One", "RSoI", "RSII"]:
        assert M.apply(CT[name]) == Combo({CT[name]: 1})


# ---------------------------------------------------------------------------
# Chaos-0 classification (frozen)
# ---------------------------------------------------------------------------

def test_chaos_zero_pairs():
    cz = classify_chaos_zero(CT["RSV"], 3)
    assert (cz.expr, cz.divergent, cz.rate) == ("Q0(0)", True, "eps^-1")
    cz2 = classify_chaos_zero(common_trees(2)["RSV"], 2)
    assert (cz2.expr, cz2.divergent, cz2.rate) == ("Q0(0)", True, "log(1/eps)")
    assert classify_chaos_zero(CT["RSVo"], 3).expr == "Q1(0)"
    assert not classify_chaos_zero(CT["RSVo"], 3).divergent
    assert classify_chaos_zero(CT["RSVoo"], 3).expr == "Q2(0)"


def test_chaos_zero_composites():
    def comp(inner, outer):
        return product([integral(CT[inner]), CT[outer]])

    table = {
        ("RSV", "RSV"): "2*I00",
        ("RSVo", "RSV"): "2*I01",
        ("RSV", "RSVo"): "2*I01",
        ("RSVo", "RSVo"): "I02 + I11",
        ("RSVoo", "RSV"): "2*I11",
        ("RSV", "RSVoo"): "2*I11",
        ("RSVo", "RSVoo"): "2*I12",
        ("RSVoo", "RSVo"): "2*I12",
        ("RSVoo", "RSVoo"): "2*I22",
    }
    for (i, o), expr in table.items():
        cz = classify_chaos_zero(comp(i, o), 3)
        assert cz.expr == expr, (i, o)
        assert cz.divergent == ((i, o) == ("RSV", "RSV")), (i, o)
    cz2 = classify_chaos_zero(comp("RSV", "RSV"), 2)
    assert not cz2.divergent


# ---------------------------------------------------------------------------
# Cubic polynomials
# ---------------------------------------------------------------------------

def test_cubic_polynomial_coefficients():
    g1, g2, b1 = sympy.symbols("g1 g2 b1")
    F = CubicPolynomial(g1 * U ** 3 + g2 * U ** 2 * V1 + b1 * U ** 2 + 7, 1)
    assert F.gamma1 == g1
    assert F.beta1 == b1          # exact monomial, not sympy's loose coeff
    assert F.gamma2(1) == g2
    assert F.coefficient(0) == 7
    assert F(1, (0,)) == g1 + b1 + 7


def test_cubic_polynomial_validation():
    with pytest.raises(ValueError):
        CubicPolynomial(U ** 4, 1)
    with pytest.raises(ValueError):
        CubicPolynomial(U * V1 ** 3, 1)
    with pytest.raises(ValueError):
        CubicPolynomial(sympy.Symbol("v2") * U, 1)  # undeclared channel
    with pytest.raises(ValueError):
        CubicPolynomial(sympy.sin(U), 1)
    with pytest.raises(ValueError, match="channel"):
        CubicPolynomial(U, -1)
    F = CubicPolynomial.standard_fhn()
    assert F.expr == U - U ** 3 - V1
    assert F.gamma1 == -1 and F.beta1 == 0 and F.gamma2(1) == 0


# ---------------------------------------------------------------------------
# Fixed-point expansion (frozen coefficient formulas)
# ---------------------------------------------------------------------------

def generic_cubic():
    g1, g2, g3, g4, b1, b2, b3 = sympy.symbols("g1 g2 g3 g4 b1 b2 b3")
    expr = (g1 * U ** 3 + g2 * U ** 2 * V1 + g3 * U * V1 ** 2 + g4 * V1 ** 3
            + b1 * U ** 2 + b2 * U * V1 + b3 * V1 ** 2)
    return CubicPolynomial(expr, 1), (g1, g2, g3, g4, b1, b2, b3)


def test_fixed_point_triple_and_pair_coefficients():
    F, (g1, g2, g3, g4, b1, b2, b3) = generic_cubic()
    fp = fixed_point_expansion(F, 3)
    phi, psi = fp.phi, fp.psi[0]
    assert fp.a[CT["RSW"]] == g1
    assert fp.a[CT["RSWo"]] == g2
    assert fp.a[CT["RSWoo"]] == g3
    assert fp.a[CT["RSWooo"]] == g4
    assert sympy.expand(fp.b[CT["RSV"]] - (b1 + 3 * g1 * phi + g2 * psi)) == 0
    assert sympy.expand(fp.b[CT["RSVo"]]
                        - (b2 + 2 * g2 * phi + 2 * g3 * psi)) == 0
    assert sympy.expand(fp.b[CT["RSVoo"]]
                        - (b3 + g3 * phi + 3 * g4 * psi)) == 0


def test_fixed_point_u_combo_trees():
    F, (g1, *_rest) = generic_cubic()
    fp = fixed_point_expansion(F, 3)
    assert fp.u_combo.coeff(CT["RSI"]) == 1
    assert fp.u_combo.coeff(ONE) == fp.phi
    assert fp.u_combo.coeff(CT["RSIW"]) == g1
    assert fp.v_combos[0].coeff(CT["RSoI"]) == 1
    assert fp.v_combos[0].coeff(CT["RSIW"]) == sympy.Symbol("ah1")
    assert fp.v_combos[0].coeff(CT["RSY"]) == sympy.Symbol("bh1")


# ---------------------------------------------------------------------------
# Renormalised equation (frozen factorisation and obstruction)
# ---------------------------------------------------------------------------

def test_renormalized_generic_cubic_d3():
    F, (g1, g2, g3, g4, b1, b2, b3) = generic_cubic()
    R = renormalized_nonlinearity(F, 3)
    assert sympy.expand(R.c0 - b1 * (C1 + 3 * g1 * C2)) == 0
    assert sympy.expand(R.c1 - 3 * g1 * (C1 + 3 * g1 * C2)) == 0
    assert sympy.expand(R.c2[0] - g2 * (C1 + 3 * g1 * C2)) == 0
    assert sympy.expand(R.C_eps - (3 * C1 + 9 * g1 * C2)) == 0
    assert R.proportional
    assert not R.factorized  # obstruction present for g2 != 0 in d = 3
    obs = {to_text(t): e for e, t in R.obstruction}
    ah1, ah2, bh1 = sympy.symbols("ah1 ah2 bh1")
    assert sympy.expand(obs["One"] + C2 * bh1 * g2) == 0
    assert sympy.expand(obs["I(Xi)"] + 3 * C2 * ah1 * g2) == 0
    assert sympy.expand(obs["E(I(Xi))"] + C2 * ah2 * g2) == 0


def test_renormalized_standard_fhn_d3():
    R = renormalized_nonlinearity(CubicPolynomial.standard_fhn(), 3)
    assert R.factorized and R.proportional
    assert R.c0 == 0 and R.c2 == (0,)
    assert sympy.expand(R.c1 + 3 * C1 - 9 * C2) == 0
    # the equation gains +C(eps)*u with C(eps) = 3*C1 - 9*C2
    gained = sympy.expand(R.Fhat - CubicPolynomial.standard_fhn().expr)
    assert sympy.expand(gained - (3 * C1 - 9 * C2) * U) == 0


def test_renormalized_generic_cubic_d2():
    F, (g1, g2, g3, g4, b1, b2, b3) = generic_cubic()
    R = renormalized_nonlinearity(F, 2)
    assert R.factorized and R.proportional
    assert sympy.expand(R.c0 - b1 * C1) == 0
    assert sympy.expand(R.c1 - 3 * g1 * C1) == 0
    assert sympy.expand(R.c2[0] - g2 * C1) == 0
    assert sympy.expand(R.C_eps - 3 * C1) == 0
    assert not R.obstruction


def test_renormalized_no_divergent_coefficients():
    g3 = sympy.Symbol("g3")
    F = CubicPolynomial(g3 * U * V1 ** 2 + V1 - U, 1)
    R = renormalized_nonlinearity(F, 3)
    assert R.c0 == 0 and R.c1 == 0 and R.c2 == (0,)
    assert R.factorized and not R.obstruction
    assert sympy.expand(R.Fhat - F.expr) == 0


def test_renormalized_beta_only_d2():
    R = renormalized_nonlinearity(CubicPolynomial(U ** 2, 1), 2)
    assert R.c0 == C1 and R.c1 == 0 and R.c2 == (0,)
    assert R.factorized


def test_renormalized_numeric_constants():
    vals = {product([CT["RSI"], CT["RSI"]]): 4.0, pat_comp(): 0.5}
    R = renormalized_nonlinearity(CubicPolynomial.standard_fhn(), 3, vals)
    assert R.c1 == pytest.approx(-3 * 4.0 + 9 * 0.5)


def test_default_constants():
    cs = default_constants(3, 1)
    assert cs == {CT["RSV"]: C1, pat_comp(): C2}
    assert default_constants(2, 1) == {common_trees(2)["RSV"]: C1}


# ---------------------------------------------------------------------------
# Hand-written counterterm rules against the derivation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n, seed", [
    (d, n, seed) for d in (2, 3) for n in (1, 2) for seed in range(3)]
    + [(3, 2, 3)])      # u^2 v2 present, u^2 v1 absent
def test_hand_written_counterterm_rules_match_derivation(d, n, seed):
    # a random cubic with every monomial present, except that each u^2 v_i
    # coefficient is dropped with probability 1/2, so both sides of the
    # d = 3 rule occur
    rng = random.Random(1000 * d + 100 * n + seed)
    gens = (U, *v_symbols(n))
    expr = 0
    for e in itertools.product(range(4), repeat=n + 1):
        if 0 < sum(e) <= 3:
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            if e[0] == 2 and sum(e) == 3 and rng.random() < 0.5:
                coeff = 0
            expr += coeff * sympy.prod(g ** k for g, k in zip(gens, e))
    F = CubicPolynomial(expr + rng.choice([-1, 1]), n)
    gamma2 = [float(F.gamma2(i)) for i in range(1, n + 1)]
    C1, C2 = rng.uniform(0.5, 5.0), rng.uniform(0.01, 0.5)
    ct = common_trees(d)
    constants = {ct["RSV"]: C1}
    if d == 3:
        constants[product([integral(ct["RSV"]), ct["RSV"]])] = C2
    eq = renormalized_nonlinearity(F, d, constants)

    assert eq.factorized == (d == 2 or not any(gamma2))
    assert eq.proportional or not eq.factorized
    want = assemble_C(float(F.beta1), float(F.gamma1), gamma2, C1,
                      C2 if d == 3 else 0.0)
    assert float(-eq.c0) == pytest.approx(want.C0, rel=1e-12, abs=1e-12)
    assert float(-eq.c1) == pytest.approx(want.C1_sys, rel=1e-12, abs=1e-12)
    assert [float(-c) for c in eq.c2] == pytest.approx(
        list(want.C2_sys), rel=1e-12, abs=1e-12)
    # SystemSpec refuses exactly the renormalised systems that do not factor
    Q = QSpec(A1=(1.0,) * n, A2=tuple(tuple(-float(i == j) for j in range(n))
                                      for i in range(n)))
    if eq.factorized:
        SystemSpec(d=d, F=F, Q=Q, renorm=want)
    else:
        with pytest.raises(ValueError, match="u\\^2 v_i"):
            SystemSpec(d=d, F=F, Q=Q, renorm=want)

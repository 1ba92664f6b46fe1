"""Command-line layer: grammar, exit codes, run directories."""
import csv
import dataclasses
import hashlib
import inspect
import json
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhnspde.cli import (
    UsageError,
    _parse_eps_list,
    load_config,
    main,
    parse_nonlinearity,
    parse_symbol_expr,
)
from fhnspde.hopf import coproduct
from fhnspde.renorm import CubicPolynomial
from fhnspde.solver import QSpec, RunConfig, SystemSpec, epsilon_sweep
from fhnspde.symbols import (
    ONE,
    XI,
    Homogeneity,
    enumerate_symbols,
    integral,
    product,
    to_text,
)


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path))
    return tmp_path


def _run_dir(outdir, sub):
    dirs = sorted((outdir / sub).iterdir())
    assert dirs, f"no run directory created under {sub}"
    return dirs[-1]


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_round_trip_every_table_symbol(d):
    # parse(print(tau)) == tau over the whole graded table, E-decorations
    # included; for d = 3 this is the benchmark's 1926-symbol table
    table = enumerate_symbols(d, Homogeneity(Fraction(3, 2)), n_channels=2)
    assert len(table.rows) == {2: 41, 3: 1926}[d]
    for row in table.rows:
        text = to_text(row.symbol)
        parsed, notes = parse_symbol_expr(text, d)
        assert notes == []
        assert parsed == row.symbol, text


def test_parse_products_and_powers():
    rsv = integral(XI)
    sym, notes = parse_symbol_expr("I(Xi)^2", d=3)
    assert notes == []
    assert sym == product([rsv, rsv])
    sym2, _ = parse_symbol_expr("I(I(Xi)^3) * I(Xi)^2", d=3)
    assert sym2 == product([integral(product([rsv] * 3)), rsv, rsv])
    # whitespace and explicit One are harmless
    assert parse_symbol_expr(" One * Xi ", d=2)[0] == XI
    assert parse_symbol_expr("One", d=2)[0] == ONE


def test_parse_zero_with_note():
    sym, notes = parse_symbol_expr("I(X1)", d=3)
    assert sym is None
    assert notes == ["I(X1) = 0: the integration symbol vanishes on the "
                     "polynomial sector"]

    for text in ("E1(One)", "E(One)"):
        sym, notes = parse_symbol_expr(text, d=3)
        assert sym is None
        assert notes == ["E1(One) = 0: argument outside the (-2, 0) "
                         "homogeneity sector"]

    # zero factor annihilates the whole product
    sym, notes = parse_symbol_expr("I(X2)*Xi", d=3)
    assert sym is None
    assert notes == ["I(X2) = 0: the integration symbol vanishes on the "
                     "polynomial sector"]


@pytest.mark.parametrize("bad", [
    "I(Xi",          # unbalanced
    "Q(Xi)",         # unknown head
    "X9",            # coordinate outside dimension
    "",              # empty
    "Xi Xi",         # missing operator
    "I()",
    "Xi**2",         # only ^ spells a power
    "2*Xi",          # no coefficients
    "I(Xi, Xi)",     # I takes one argument
    "Xi^-1",         # negative power
    "E0(Xi)",        # channels start at 1
    "Xi^2^3",        # one power per factor
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(UsageError):
        parse_symbol_expr(bad, d=3)


def test_parse_nonlinearity_coefficients():
    F = parse_nonlinearity("u - u^3 + v", 1)
    assert F.n_channels == 1
    assert sympy.expand(F.expr - sympy.sympify("u - u**3 + v1")) == 0

    F2 = parse_nonlinearity("3*u + v1 - u^3", 2)
    assert F2.n_channels == 2
    assert sympy.expand(F2.expr - sympy.sympify("3*u + v1 - u**3")) == 0

    assert parse_nonlinearity("0", 1).expr == 0


@pytest.mark.parametrize("bad,frag", [
    ("u^4", "degree"),
    ("w + u", "unknown variables"),
    ("sin(u)", "not polynomial"),
    ("u*v1*v2", "unknown variables"),
    ("1/u", "not polynomial"),
    ("u^-1", "not polynomial"),
    ("u^(1/2)", "not polynomial"),
    ("2^u", "not polynomial"),
    ("pi*u", "unknown variables"),
])
def test_parse_nonlinearity_rejects(bad, frag):
    with pytest.raises(UsageError, match=frag):
        parse_nonlinearity(bad, 1)


@st.composite
def _nonlinearity_texts(draw):
    """(n, text): sums of rational multiples of products of variables,
    powers and linear factors, so factored forms and expansions beyond
    degree 3 both occur."""
    n = draw(st.sampled_from([0, 1, 2, 11]))
    names = ["u"] + (["v", "v1"] if n == 1
                     else [f"v{i}" for i in range(1, n + 1)])
    num = st.one_of(
        st.integers(0, 12).map(str),
        st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 12)),
        st.builds("{}.{}".format, st.integers(0, 3),
                  st.sampled_from(["1", "25", "05", "5"])))
    var = st.sampled_from(names)
    linear = st.lists(
        st.tuples(st.sampled_from(["+", "-"]), num, st.none() | var),
        min_size=1, max_size=3).map(lambda ts: "(" + " ".join(
            f"{s} {c}" + (f"*{x}" if x else "") for s, c, x in ts) + ")")
    factor = var | linear | st.builds("{}^{}".format, var | linear,
                                      st.integers(0, 3))
    term = st.builds(
        lambda s, c, fs, q: f"{s}{c}" + "".join("*" + f for f in fs) + q,
        st.sampled_from(["", "-"]), num, st.lists(factor, max_size=3),
        st.sampled_from(["", "/3", "/(2 - 1/2)"]))
    terms = draw(st.lists(term, min_size=1, max_size=4))
    return n, " + ".join(terms).replace("+ -", "- ")


@given(_nonlinearity_texts())
@example((1, "u*(1-u)*(u-0.1) - v"))
@example((1, "1 - u"))
@settings(max_examples=200, deadline=None)
def test_parse_nonlinearity_matches_sympy(case):
    # the exact table against sympy's reading of the same text, and the
    # rendered text against sympy's printer (manifests and renorm_eq.json
    # carry it)
    n, text = case
    gens = sympy.symbols(["u"] + [f"v{i}" for i in range(1, n + 1)])
    expr = sympy.sympify(text.replace("^", "**"), rational=True)
    if n == 1:
        expr = expr.subs(sympy.Symbol("v"), gens[1])
    want = sympy.Poly(expr, *gens)
    if want.total_degree() > 3:
        with pytest.raises(UsageError, match="degree"):
            parse_nonlinearity(text, n)
        return
    F = parse_nonlinearity(text, n)
    assert F.terms == tuple(want.terms())
    assert all(isinstance(c, Fraction) for _, c in F.terms)
    assert F.text() == str(sympy.expand(expr)) == str(F.expr)


def test_parse_eps_list():
    assert _parse_eps_list("2^-2, 0.1 2^-3") == [0.25, 0.1, 0.125]


@pytest.mark.parametrize("bad,frag", [
    ("0", "finite and positive"),
    ("-0.1", "finite and positive"),
    ("nan", "finite and positive"),
    ("inf", "finite and positive"),
    ("2^-2, -1", "finite and positive"),
    ("2^-5000", "finite and positive"),   # underflows to 0
    ("2^5000", "bad scale"),              # overflows
])
def test_parse_eps_list_rejects_non_positive(bad, frag):
    with pytest.raises(UsageError, match=frag):
        _parse_eps_list(bad)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(outdir, capsys):
    assert main(["no-such-subcommand"]) == 1
    assert main(["coproduct", "I(Xi", "--dim", "2"]) == 1
    assert main(["simulate", "--config", str(outdir / "missing.cfg")]) == 1
    assert main(["symbols", "--dim", "5"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    # a negative slow-channel count is a usage error, not a silent zero
    for argv in (["symbols", "--channels", "-2"],
                 ["renorm-eq", "--dim", "3", "--F", "u - u^3",
                  "--channels", "-1"]):
        assert main(argv) == 1
        assert "negative" in capsys.readouterr().err
        assert not (outdir / argv[0]).exists()
    # verify-bounds inputs that cannot certify a trend fail before any
    # quadrature: a NaN or negative theta, a NaN tolerance, a single scale
    for extra in (["--theta", "nan"], ["--theta", "-1"], ["--tol", "nan"],
                  ["--eps-list", "2^-3"]):
        argv = ["verify-bounds", "--dim", "2", "--eps-list", "2^-3,2^-4"]
        assert main(argv + extra) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (outdir / "verify-bounds").exists()
    # two scales with one manifest key (exact repeats included) fail before
    # any quadrature, and no run directory is left behind
    for eps_list in ("2^-2, 0.25", "2^-3, 2^-4, 2^-3"):
        argv = ["constants", "--dim", "2", "--eps-list", eps_list]
        assert main(argv) == 1
        assert "repeat" in capsys.readouterr().err
        assert not (outdir / "constants").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# table / algebra subcommands
# ---------------------------------------------------------------------------

def test_symbols_writes_table_and_manifest(outdir):
    assert main(["symbols", "--dim", "2", "--cutoff", "0",
                 "--channels", "1"]) == 0
    rd = _run_dir(outdir, "symbols")
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["subcommand"] == "symbols"
    assert manifest["config"]["dim"] == 2
    assert manifest["elapsed_seconds"] >= 0
    # inventory checksums match the files on disk
    inv = {o["file"]: o for o in manifest["outputs"]}
    assert "symbols.csv" in inv
    for name, entry in inv.items():
        blob = (rd / name).read_bytes()
        assert entry["bytes"] == len(blob)
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()

    with (rd / "symbols.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"name", "expr", "homogeneity"}
    # every printed expression parses back to a non-zero symbol
    for r in rows:
        sym, notes = parse_symbol_expr(r["expr"], d=2)
        assert sym is not None and notes == []


def test_coproduct_zero_prints_without_run_dir(outdir, capsys):
    assert main(["coproduct", "I(X1)", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "0" in out and "polynomial sector" in out
    assert not (outdir / "coproduct").exists()


def test_coproduct_writes_expansion(outdir, capsys):
    # the display form, not the TensorSum's repr
    assert main(["coproduct", "I(Xi)^3", "--dim", "3"]) == 0
    assert "coproduct: RSW (x) 1" in capsys.readouterr().out.splitlines()
    rd = _run_dir(outdir, "coproduct")
    text = (rd / "coproduct.txt").read_text()
    assert text.splitlines()[1] == "RSW (x) 1"


def test_renorm_eq_standard_fhn(outdir, capsys):
    assert main(["renorm-eq", "--dim", "3", "--F", "u - u^3 + v"]) == 0
    out = capsys.readouterr().out
    assert "obstruction report: empty" in out
    assert "C(eps)" in out
    rd = _run_dir(outdir, "renorm-eq")
    payload = json.loads((rd / "renorm_eq.json").read_text())
    assert payload["c0"] == "0"
    assert payload["c2"] == ["0"]
    assert "C1" in payload["C_eps"] and "C2" in payload["C_eps"]
    assert payload["obstruction"] == []


def test_renorm_eq_obstruction_reported(outdir, capsys):
    # u^2 v coupling in d = 3 leaves terms no admitted counterterm removes
    assert main(["renorm-eq", "--dim", "3", "--F", "u - u^3 + u^2*v"]) == 0
    out = capsys.readouterr().out
    assert "obstruction report (no counterterm" in out
    rd = _run_dir(outdir, "renorm-eq")
    payload = json.loads((rd / "renorm_eq.json").read_text())
    assert payload["obstruction"]


@pytest.mark.parametrize("F, flags, n", [("u - u^3 - v", [], 1),
                                         ("u - u^3 - v1 - v2",
                                          ["--channels", "2"], 2)])
def test_renorm_eq_records_its_channel_count(outdir, F, flags, n):
    # --channels has no default of its own: without it parse_nonlinearity's
    # one channel applies, and the manifest records the count F was read in
    assert main(["renorm-eq", "--dim", "2", "--F", F] + flags) == 0
    rd = _run_dir(outdir, "renorm-eq")
    assert json.loads((rd / "manifest.json").read_text())["config"][
        "channels"] == n


def test_verify_bounds_flags_state_the_tolerances(outdir, monkeypatch):
    # verify_appendix_bounds has no tolerances of its own: --theta 0.25 and
    # --tol 0.1 reach it and the manifest
    import fhnspde.cli
    seen = {}

    def checks(d, eps_list, theta, trend_tol):
        seen.update(d=d, theta=theta, trend_tol=trend_tol)
        return []

    monkeypatch.setattr(fhnspde.cli, "verify_appendix_bounds", checks)
    assert main(["verify-bounds", "--dim", "3"]) == 0
    assert seen == {"d": 3, "theta": 0.25, "trend_tol": 0.1}
    config = json.loads((_run_dir(outdir, "verify-bounds")
                         / "manifest.json").read_text())["config"]
    assert (config["theta"], config["trend_tol"]) == (0.25, 0.1)


# ---------------------------------------------------------------------------
# pinned symbolic outputs: a refactor of the symbolic layers must keep them
# ---------------------------------------------------------------------------

def test_pinned_symbol_table_and_coproducts():
    table = enumerate_symbols(3, Homogeneity(Fraction(1, 2)), n_channels=2)
    h = hashlib.sha256()
    for r in table.rows:
        h.update(f"{r.name}\t{to_text(r.symbol)}\t{r.hom}\t"
                 f"{coproduct(r.symbol, 3).text()}\n".encode())
    assert len(table.rows) == 421
    assert h.hexdigest() == ("72f5c6b287616a7dee6bab897750241b"
                             "a87dbdac6e151f01ef28fe0a0df2baa4")


_FHN = {"c0": "0", "c1": "-3*C1 + 9*C2", "C_eps": "3*C1 - 9*C2",
        "proportional": True}
_PINNED_RENORM_EQ = [
    (["--dim", "2", "--F", "u - u^3 - v"],
     {"F": "-u**3 + u - v1", "dim": 2, "c0": "0", "c1": "-3*C1",
      "c2": ["0"], "C_eps": "3*C1", "proportional": True,
      "factorized": True, "obstruction": [],
      "Fhat": "3*C1*u - u**3 + u - v1"}),
    (["--dim", "3", "--F", "u - u^3 - v"],
     {"F": "-u**3 + u - v1", "dim": 3, **_FHN, "c2": ["0"],
      "factorized": True, "obstruction": [],
      "Fhat": "3*C1*u - 9*C2*u - u**3 + u - v1"}),
    (["--dim", "3", "--F", "u - u^3 + u^2*v"],
     {"F": "-u**3 + u**2*v1 + u", "dim": 3, **_FHN, "c2": ["C1 - 3*C2"],
      "factorized": False,
      "obstruction": [["-C2*bh1", "One"], ["-3*C2*ah1", "I(Xi)"],
                      ["-C2*ah2", "E(I(Xi))"]],
      "Fhat": "3*C1*u - C1*v1 - 9*C2*u + 3*C2*v1 - u**3 + u**2*v1 + u"}),
    (["--dim", "3", "--F", "3*u + v1 - u^3", "--channels", "2"],
     {"F": "-u**3 + 3*u + v1", "dim": 3, **_FHN, "c2": ["0", "0"],
      "factorized": True, "obstruction": [],
      "Fhat": "3*C1*u - 9*C2*u - u**3 + 3*u + v1"}),
]


@pytest.mark.parametrize("args, payload", _PINNED_RENORM_EQ)
def test_pinned_renorm_eq_payloads(outdir, capsys, args, payload):
    assert main(["renorm-eq"] + args) == 0
    text = (_run_dir(outdir, "renorm-eq") / "renorm_eq.json").read_text()
    keys = ["F", "dim", "c0", "c1", "c2", "C_eps", "proportional",
            "factorized", "obstruction", "Fhat"]
    assert text == json.dumps({k: payload[k] for k in keys}, indent=2)


def test_constants_csv_d2(outdir):
    assert main(["constants", "--dim", "2",
                 "--eps-list", "2^-2,2^-3"]) == 0
    rd = _run_dir(outdir, "constants")
    with (rd / "constants.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eps"] for r in rows] == ["0.25", "0.125"]
    c1 = [float(r["C1"]) for r in rows]
    assert all(v > 0 for v in c1)
    assert c1[1] > c1[0]  # log divergence as eps shrinks
    manifest = json.loads((rd / "manifest.json").read_text())
    rss = manifest["peak_rss_mb"]
    assert math.isfinite(rss) and rss > 0


# ---------------------------------------------------------------------------
# configured runs
# ---------------------------------------------------------------------------

CFG = """\
[grid]
n_space = 16
dt = 1e-3
t_end = 4e-3

[system]
dim = 2
channels = 1
F = u - u^3 + v
A1 = 1.0
A2 = -1.0
eta = -0.6

[noise]
eps = 0.25
seed = 1

[renorm]
enabled = yes

[output]
record_every = 2
snapshots = 4e-3

[sweep]
eps_list = 2^-2
t_star = 4e-3
"""

# a dimension outside {2, 3}, with and without counterterms: one message
# from RunConfig.validate, whichever command and layer would meet it first
BAD_DIM_CFGS = {
    f"dim-{dim}-renorm-{on}": CFG.replace("dim = 2", f"dim = {dim}")
    .replace("enabled = yes", f"enabled = {on}")
    for dim in (1, 4) for on in ("yes", "no")}


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CFG)
    return p


def test_load_config_round_trip(config_file):
    spec, config, extra = load_config(str(config_file))
    assert spec.d == 2 and spec.F.n_channels == 1
    assert config.n_space == 16 and config.eps == 0.25
    assert extra["renorm_on"] is True
    assert extra["sweep"]["eps_list"] == [0.25]


def test_load_config_leaves_unset_keys_to_the_defaults(tmp_path):
    # a key the file leaves out is not passed, so the dataclass field or
    # epsilon_sweep parameter it would set keeps its own default
    p = tmp_path / "min.cfg"
    p.write_text("[grid]\n[system]\n[sweep]\neps_list = 2^-2\n")
    spec, config, extra = load_config(str(p))
    assert config == RunConfig(n_space=128, dt=1e-4, t_end=0.1, eps=0.25,
                               seed=0)
    assert spec == SystemSpec(d=2, F=CubicPolynomial("u - u^3 - v", 1),
                              Q=QSpec(A1=(1.0,), A2=((-1.0,),)))
    assert extra == {"renorm_on": True, "sweep": {"eps_list": [0.25]}}


FULL_CFG = """\
[grid]
n_space = 24
dt = 2e-3
t_end = 6e-3

[system]
dim = 3
channels = 2
formulation = remainder
F = u - u^3 - v1 - v2
A1 = 1.0 0.5
A2 = -1.0 0.0; 0.0 -2.0
eta = -0.5
gamma = 1.25
taper = 0.25
cutoff = 50

[noise]
eps = 0.2
seed = 7
amplitude = 0.5

[renorm]
enabled = no

[output]
record_every = 3
snapshots = 2e-3 4e-3

[sweep]
eps_list = 2^-2, 2^-3
t_star = 4e-3
"""


def test_load_config_reads_every_documented_key(tmp_path):
    p = tmp_path / "full.cfg"
    p.write_text(FULL_CFG)
    spec, config, extra = load_config(str(p))
    assert config == RunConfig(
        n_space=24, dt=2e-3, t_end=6e-3, eps=0.2, seed=7, cutoff=50.0,
        eta=-0.5, gamma=1.25, noise_amplitude=0.5, record_every=3,
        snapshot_times=(2e-3, 4e-3))
    assert spec == SystemSpec(
        d=3, F=CubicPolynomial("u - u^3 - v1 - v2", 2),
        Q=QSpec(A1=(1.0, 0.5), A2=((-1.0, 0.0), (0.0, -2.0)), T=0.25),
        formulation="remainder")
    assert extra == {"renorm_on": False,
                     "sweep": {"eps_list": [0.25, 0.125], "t_star": 4e-3}}
    # every default the file can reach is overridden, so each value above
    # came from the file
    overridden = {f.name for obj in (config, spec, spec.Q)
                  for f in dataclasses.fields(obj)
                  if f.default is not dataclasses.MISSING
                  and getattr(obj, f.name) != f.default}
    assert overridden == {"cutoff", "eta", "gamma", "noise_amplitude",
                          "record_every", "snapshot_times", "formulation",
                          "T"}
    assert extra["sweep"]["t_star"] != inspect.signature(
        epsilon_sweep).parameters["t_star"].default


def test_simulate_outputs(outdir, config_file, capsys):
    assert main(["simulate", "--config", str(config_file)]) == 0
    assert "termination: completed" in capsys.readouterr().out
    rd = _run_dir(outdir, "simulate")

    with (rd / "norms.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["t", "sup_u", "l2_u", "sup_v", "l2_v", "sup_phi"]
    assert all(math.isfinite(float(x)) for row in rows for x in row)
    assert float(rows[-1][0]) == pytest.approx(4e-3)

    # snapshot pair written and listed in the manifest inventory
    manifest = json.loads((rd / "manifest.json").read_text())
    names = {o["file"] for o in manifest["outputs"]}
    assert {"u_t0p004.bin", "u_t0p004.json"} <= names
    for entry in manifest["outputs"]:
        blob = (rd / entry["file"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    assert manifest["config"]["renorm"]["C_eps"] > 0
    assert manifest["config"]["noise_checksum"]


def test_converge_outputs(outdir, config_file, capsys):
    assert main(["converge", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "contraction" in out
    rd = _run_dir(outdir, "converge")
    with (rd / "converge.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["mode"] for r in rows} == {"renormalised", "unrenormalised"}
    assert {r["channel"] for r in rows} == {"u", "v", "phi"}
    for r in rows:
        assert float(r["D_sup"]) >= float(r["D_l2"]) >= 0.0


def test_converge_honours_renorm_switch(tmp_path, monkeypatch, capsys):
    # [renorm] enabled = no sweeps the unrenormalised dynamics only, with
    # the same rows as the run with both modes; booleans ignore case.  The
    # manifest's constants are the sweep's counterterms per scale, none
    # without renormalisation
    rows, constants = {}, {}
    for flag in ("yes", "no", "Off"):
        p = tmp_path / f"{flag}.cfg"
        p.write_text(CFG.replace("enabled = yes", f"enabled = {flag}"))
        monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path / flag))
        assert main(["converge", "--config", str(p)]) == 0
        rd = _run_dir(tmp_path / flag, "converge")
        with (rd / "converge.csv").open() as fh:
            rows[flag] = list(csv.DictReader(fh))
        manifest = json.loads((rd / "manifest.json").read_text())
        constants[flag] = manifest["constants"]
        assert constants[flag] == manifest["config"]["constants"]
    capsys.readouterr()
    assert {r["mode"] for r in rows["yes"]} == {"renormalised",
                                                "unrenormalised"}
    assert rows["no"] == [r for r in rows["yes"]
                          if r["mode"] == "unrenormalised"]
    assert rows["Off"] == rows["no"]
    assert sorted(map(float, constants["yes"])) == [0.125, 0.25]
    for c in constants["yes"].values():
        assert set(c) == {"C0", "C1", "C2", "C_eps"} and c["C_eps"] > 0
    assert constants["no"] == constants["Off"] == {}


def test_renorm_switch_rejects_non_boolean(outdir, tmp_path, capsys):
    # a typo in [renorm] enabled is a usage error, not a silent yes
    p = tmp_path / "typo.cfg"
    p.write_text(CFG.replace("enabled = yes", "enabled = nope"))
    for sub in ("simulate", "converge"):
        assert main([sub, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config") and "nope" in err
        assert not (outdir / sub).exists()


def test_converge_grid_guard(outdir, tmp_path, capsys):
    # partner scale eps/2 would fall below two grid spacings; a negative
    # cutoff, a record interval below one or a seed outside the generator's
    # key range must fail validation before any counterterm is computed and
    # before any run directory exists
    p = tmp_path / "bad.cfg"
    for old, new in (("eps_list = 2^-2", "eps_list = 2^-3"),
                     ("dim = 2", "dim = 2\ncutoff = -1"),
                     ("record_every = 2", "record_every = 0"),
                     ("seed = 1", "seed = -1"),
                     ("n_space = 16", "n_space = 0"),
                     ("n_space = 16", "n_space = -4"),
                     ("t_star = 4e-3", "t_star = nan"),
                     ("t_star = 4e-3", "t_star = -1")):
        p.write_text(CFG.replace(old, new))
        assert main(["converge", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (outdir / "converge").exists()
    for text in BAD_DIM_CFGS.values():
        p.write_text(text)
        assert main(["converge", "--config", str(p)]) == 1
        assert "must be 2 or 3" in capsys.readouterr().err
        assert not (outdir / "converge").exists()


def test_unrenormalisable_d3_system_fails_before_any_quadrature(
        outdir, tmp_path, monkeypatch, capsys):
    # d = 3 admits no counterterm for a u^2 v coefficient: converge and
    # renormalised simulate refuse it before any constant is computed and
    # before any run directory exists
    import fhnspde.solver

    def no_quadrature(*args, **kwargs):
        raise AssertionError("kernel constants computed")

    monkeypatch.setattr(fhnspde.solver, "counterterm_constants",
                        no_quadrature)
    p = tmp_path / "d3.cfg"
    p.write_text(CFG.replace("dim = 2", "dim = 3")
                 .replace("F = u - u^3 + v", "F = u - u^3 + u^2*v"))
    for sub in ("converge", "simulate"):
        assert main([sub, "--config", str(p)]) == 1
        assert "u^2 v_i" in capsys.readouterr().err
        assert not (outdir / sub).exists()


def test_failed_run_prints_error_and_leaves_no_run_dir(outdir, tmp_path,
                                                      capsys):
    # a sweep that passes the pre-checks and leaves the stable regime at
    # once; a dimension the solver has no lattice for, refused up front
    p = tmp_path / "fail.cfg"
    for sub, old, new, frag in (
            ("converge", "dim = 2", "dim = 2\ncutoff = 1e-9",
             "stable regime"),
            ("simulate", "dim = 2", "dim = 4", "spatial dimension")):
        p.write_text(CFG.replace(old, new)
                     .replace("enabled = yes", "enabled = no"))
        assert main([sub, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and frag in err
        assert not (outdir / sub).exists()


@pytest.mark.parametrize("every", ["0", "-3"])
def test_simulate_rejects_record_interval_below_one(outdir, tmp_path, capsys,
                                                    every):
    p = tmp_path / "bad.cfg"
    p.write_text(CFG.replace("record_every = 2", f"record_every = {every}"))
    assert main(["simulate", "--config", str(p)]) == 1
    assert "record_every" in capsys.readouterr().err
    assert not (outdir / "simulate").exists()


@pytest.mark.parametrize("old, new, frag", [
    ("seed = 1", "seed = -1", "seed"),
    ("seed = 1", f"seed = {2 ** 64}", "seed"),
    ("snapshots = 4e-3", "snapshots = 0.5 -0.1", "snapshot"),
    ("snapshots = 4e-3", "snapshots = 2e-3 2.2e-3", "snapshot"),
    ("n_space = 16", "n_space = 0", "n_space"),
    ("n_space = 16", "n_space = -4", "n_space"),
    ("dim = 2", "dim = 2\ncutoff = nan", "cutoff"),
    ("seed = 1", "seed = 1\namplitude = nan", "amplitude"),
    ("dt = 1e-3", "dt = nan", "dt"),
    ("t_end = 4e-3", "t_end = inf", "t_end"),
] + [pytest.param(None, text, "must be 2 or 3", id=name)
     for name, text in BAD_DIM_CFGS.items()])
def test_simulate_rejects_bad_seed_and_snapshot_times(outdir, tmp_path,
                                                      capsys, old, new, frag):
    # old = None: ``new`` is the whole config
    p = tmp_path / "bad.cfg"
    p.write_text(new if old is None else CFG.replace(old, new))
    assert main(["simulate", "--config", str(p)]) == 1
    assert frag in capsys.readouterr().err
    assert not (outdir / "simulate").exists()

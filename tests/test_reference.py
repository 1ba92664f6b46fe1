"""The outputs the benchmark reference records, checked as it checks them.

``perfbench/reference.json`` (read only here) holds, for the 1926 symbols of
``enumerate_symbols(3, 3/2, n_channels=2)``, the sha256 of every symbol's
text and coproduct, and the ``renorm_eq.json`` payloads of four
``renorm-eq`` runs.  A refactor of the symbolic layer must leave all of
them as they are.  It also holds the quick-size numbers: the d = 3
constants at eps = 2^-4 and simulate_d3's counterterm C(eps), which the
benchmark compares at 1e-12 relative; a kernels change it would report as
incorrect fails here first.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fhnspde.cli import main
from fhnspde.hopf import coproduct
from fhnspde.kernels import kernel_constants
from fhnspde.renorm import CubicPolynomial
from fhnspde.solver import counterterms_for
from fhnspde.symbols import Homogeneity, enumerate_symbols, to_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = PERFBENCH / "reference.json"
sys.path.insert(0, str(PERFBENCH))
from workloads import CONST_REL_TOL  # noqa: E402  (the benchmark's tolerance)

RENORM_EQ = {
    "fhn_d2": ["--dim", "2", "--F", "u - u^3 - v"],
    "fhn_d3": ["--dim", "3", "--F", "u - u^3 - v"],
    "obstruction_d3": ["--dim", "3", "--F", "u - u^3 + u^2*v"],
    "koper_d3": ["--dim", "3", "--F", "3*u + v1 - u^3", "--channels", "2"],
}


@pytest.fixture(scope="module")
def quick():
    return json.loads(REFERENCE.read_text())["quick"]


@pytest.fixture(scope="module")
def fixed(quick):
    return quick["symbolic_d3"]["fixed"]


def test_constants_d3_quick(quick):
    # `constants --dim 3 --eps-list 2^-4`: kernel_constants(3, 2^-4, full)
    [(scale, want)] = quick["constants_d3"]["fixed"]["constants"].items()
    c = kernel_constants(3, 2.0 ** -4, full=True)
    assert scale == f"eps={c.eps:.6g}"
    got = {"C1": c.C1, "C2": c.C2}
    got.update({f"I{i}{j}": v for (i, j), v in c.I.items()})
    assert got == pytest.approx(want, rel=CONST_REL_TOL, abs=0.0)


def test_simulate_d3_counterterm(quick):
    # the simulate_d3 config: F = u - u^3 - v in d = 3 at eps = 0.25
    F = CubicPolynomial("u - u^3 - v", 1)
    got = counterterms_for(F, 3, 0.25).C_eps
    want = quick["simulate_d3"]["fixed"]["C_eps"]
    assert got == pytest.approx(want, rel=CONST_REL_TOL, abs=0.0)


def test_coproduct_table_digest(fixed):
    table = enumerate_symbols(3, Homogeneity(Fraction(3, 2)), n_channels=2)
    assert len(table.rows) == fixed["rows"]
    h = hashlib.sha256()
    for row in table.rows:
        h.update(f"{to_text(row.symbol)}\t"
                 f"{coproduct(row.symbol, 3).text()}\n".encode())
    assert h.hexdigest() == fixed["coproduct_sha256"]


@pytest.mark.parametrize("name", sorted(RENORM_EQ))
def test_renorm_eq_payload(fixed, name, tmp_path, monkeypatch):
    monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path))
    assert main(["renorm-eq"] + RENORM_EQ[name]) == 0
    (run_dir,) = (tmp_path / "renorm-eq").iterdir()
    payload = json.loads((run_dir / "renorm_eq.json").read_text())
    assert payload == fixed["renorm_eq"][name]

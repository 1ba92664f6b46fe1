"""The symbolic outputs the benchmark reference records, pinned exactly.

``perfbench/reference.json`` (read only here) holds, for the 1926 symbols of
``enumerate_symbols(3, 3/2, n_channels=2)``, the sha256 of every symbol's
text and coproduct, and the ``renorm_eq.json`` payloads of four
``renorm-eq`` runs.  A refactor of the symbolic layer must leave all of
them as they are.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fhnspde.cli import main
from fhnspde.hopf import coproduct
from fhnspde.symbols import Homogeneity, enumerate_symbols, to_text

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" \
    / "reference.json"

RENORM_EQ = {
    "fhn_d2": ["--dim", "2", "--F", "u - u^3 - v"],
    "fhn_d3": ["--dim", "3", "--F", "u - u^3 - v"],
    "obstruction_d3": ["--dim", "3", "--F", "u - u^3 + u^2*v"],
    "koper_d3": ["--dim", "3", "--F", "3*u + v1 - u^3", "--channels", "2"],
}


@pytest.fixture(scope="module")
def fixed():
    return json.loads(REFERENCE.read_text())["quick"]["symbolic_d3"]["fixed"]


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

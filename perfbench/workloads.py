"""The four benchmark workloads: inputs, the timed operations, and checks.

Each workload enters through ``fhnspde.cli.main`` (``symbolic_d3`` also calls
the symbolic API, since no subcommand computes a whole coproduct column).
``prepare`` writes the inputs, ``operate`` is the timed part,
``extract`` reads the outputs back, and ``check`` compares them with the
references recorded in ``reference.json``.

Two sizes exist.  ``full`` is the acceptance-test scale (acceptance 5, 9 and
10 of the README).  ``quick`` keeps every layer each workload exercises but
shrinks the grid, the step count or the scale list, so that several
repetitions fit in one timed run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

NAMES = ("converge_d2", "simulate_d3", "constants_d3", "symbolic_d3")
SIZES = ("quick", "full")

# converge_d2: acceptance 9 at full size (8 members in lockstep).  Its noise
# seed is fixed: the cost of cubic evaluation depends on the realisation
# (numpy's ``u**3`` takes a slow path for negative bases, so the sign of the
# smoothed field sets it), which would make a seed-driven realisation move
# wall_s by up to 2x from run to run.  Seed 4 takes the slow path.
CONVERGE_SEED = 4
CONVERGE = {
    "quick": {"n_space": 64, "dt": 1e-4, "t_star": 0.04},
    "full": {"n_space": 128, "dt": 1e-4, "t_star": 0.1},
}
CONVERGE_EPS = "2^-2, 2^-3, 2^-4"
# simulate_d3: acceptance 10 at full size
SIMULATE = {
    "quick": {"n_space": 32, "dt": 1e-4, "t_end": 0.005},
    "full": {"n_space": 32, "dt": 1e-4, "t_end": 0.05},
}
# constants_d3: acceptance 5's scales at full size
CONSTANTS_EPS = {"quick": "2^-4", "full": "2^-4, 2^-5, 2^-6, 2^-7"}
# symbolic_d3: the same at both sizes
SYMBOL_CUTOFF = Fraction(3, 2)
SYMBOL_ROWS = 1926
RENORM_EQ = (
    ("fhn_d2", ["--dim", "2", "--F", "u - u^3 - v"]),
    ("fhn_d3", ["--dim", "3", "--F", "u - u^3 - v"]),
    ("obstruction_d3", ["--dim", "3", "--F", "u - u^3 + u^2*v"]),
    ("koper_d3", ["--dim", "3", "--F", "3*u + v1 - u^3",
                  "--channels", "2"]),
)

D_REL_TOL = 1e-8        # converge.csv prints 10 significant digits
CONST_REL_TOL = 1e-12   # constants to rounding


@dataclass
class Op:
    """One checked operation of a repetition."""

    name: str
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Context:
    workload: str
    size: str
    noise_seed: Optional[int]   # None: the workload has no random input
    work: Path
    argv: dict = field(default_factory=dict)    # op name -> cli argv
    results: dict = field(default_factory=dict)  # op name -> rc or value
    errors: dict = field(default_factory=dict)   # op name -> exception text

    def out_dir(self, op: str) -> Path:
        return self.work / "out" / op


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
    path.write_text("\n".join(lines) + "\n")


def prepare(workload: str, size: str, seed: int, work: Path) -> Context:
    """Write the workload's inputs under ``work``.

    ``seed`` is the noise seed of ``simulate_d3``; the other workloads have
    fixed inputs (``converge_d2``: see ``CONVERGE_SEED``).
    """
    ctx = Context(workload, size, None, work)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "converge_d2":
        ctx.noise_seed = CONVERGE_SEED
        p = CONVERGE[size]
        ini = work / "converge.ini"
        _write_ini(ini, {
            "grid": {"n_space": p["n_space"], "dt": p["dt"],
                     "t_end": p["t_star"]},
            "system": {"dim": 2, "F": "u - u^3 - v"},
            "noise": {"eps": 0.25, "seed": ctx.noise_seed},
            "sweep": {"eps_list": CONVERGE_EPS, "t_star": p["t_star"]},
        })
        ctx.argv["converge"] = ["converge", "--config", str(ini)]
    elif workload == "simulate_d3":
        ctx.noise_seed = seed
        p = SIMULATE[size]
        ini = work / "simulate.ini"
        _write_ini(ini, {
            "grid": {"n_space": p["n_space"], "dt": p["dt"],
                     "t_end": p["t_end"]},
            "system": {"dim": 3, "F": "u - u^3 - v", "cutoff": 1000.0},
            "noise": {"eps": 0.25, "seed": ctx.noise_seed},
            "renorm": {"enabled": "yes"},
        })
        ctx.argv["simulate"] = ["simulate", "--config", str(ini)]
    elif workload == "constants_d3":
        ctx.argv["constants"] = ["constants", "--dim", "3", "--eps-list",
                                 CONSTANTS_EPS[size], "--check"]
    elif workload == "symbolic_d3":
        for name, args in RENORM_EQ:
            ctx.argv[name] = ["renorm-eq"] + args
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


def _call(ctx: Context, op: str, fn: Callable) -> None:
    try:
        ctx.results[op] = fn()
    except Exception as exc:     # a raising operation is a failed operation
        ctx.errors[op] = f"{type(exc).__name__}: {exc}"


def operate(ctx: Context) -> None:
    """The timed part: every call into fhnspde the workload makes."""
    import fhnspde.cli
    import fhnspde.hopf
    import fhnspde.symbols

    if ctx.workload == "symbolic_d3":
        d = 3
        _call(ctx, "enumerate", lambda: fhnspde.symbols.enumerate_symbols(
            d, fhnspde.symbols.Homogeneity(SYMBOL_CUTOFF), n_channels=2))
        table = ctx.results.get("enumerate")
        if table is not None:
            _call(ctx, "coproducts", lambda: [
                (row.symbol, fhnspde.hopf.coproduct(row.symbol, d))
                for row in table.rows])
    for op, argv in ctx.argv.items():
        os.environ["FHNSPDE_OUT"] = str(ctx.out_dir(op))
        _call(ctx, op, lambda: fhnspde.cli.main(argv))


# ---------------------------------------------------------------------------
# reading outputs back
# ---------------------------------------------------------------------------

def _run_dir(ctx: Context, op: str) -> Path:
    dirs = sorted(p for p in ctx.out_dir(op).glob("*/*") if p.is_dir())
    if len(dirs) != 1:
        raise RuntimeError(f"expected one run directory for {op}, "
                           f"found {len(dirs)}")
    return dirs[0]


def _manifest(ctx: Context, op: str) -> dict:
    return json.loads((_run_dir(ctx, op) / "manifest.json").read_text())


def extract(ctx: Context) -> dict:
    """The outputs the checks look at, as JSON-ready values.

    ``seed`` holds what depends on the noise seed, ``fixed`` what does not.
    """
    w = ctx.workload
    if w == "converge_d2":
        rd = _run_dir(ctx, "converge")
        with open(rd / "converge.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        manifest = json.loads((rd / "manifest.json").read_text())
        return {"seed": {
            "noise_checksum": manifest["noise_checksum"],
            "D": [[r["mode"], r["channel"], r["eps"],
                   float(r["D_sup"]), float(r["D_l2"])] for r in rows]},
            "fixed": {}}
    if w == "simulate_d3":
        rd = _run_dir(ctx, "simulate")
        manifest = json.loads((rd / "manifest.json").read_text())
        with open(rd / "norms.csv", newline="") as fh:
            norms = [float(x) for r in csv.DictReader(fh)
                     for x in list(r.values())[1:]]
        return {"seed": {"noise_checksum":
                         manifest["config"]["noise_checksum"]},
                "fixed": {"C_eps": manifest["constants"]["C_eps"]},
                "termination": manifest["termination"],
                "norms": norms}
    if w == "constants_d3":
        manifest = _manifest(ctx, "constants")
        consts = {}
        for key, rec in manifest["constants"].items():
            vals = {"C1": rec["C1"], "C2": rec["C2"]}
            vals.update(rec["I"])
            consts[key] = vals
        return {"seed": {}, "fixed": {"constants": consts}}
    if w == "symbolic_d3":
        from fhnspde.symbols import to_text
        table = ctx.results["enumerate"]
        h = hashlib.sha256()
        for sym, cop in ctx.results["coproducts"]:
            h.update(f"{to_text(sym)}\t{cop.text()}\n".encode())
        renorm = {op: json.loads(
            (_run_dir(ctx, op) / "renorm_eq.json").read_text())
            for op, _ in RENORM_EQ}
        return {"seed": {},
                "fixed": {"rows": len(table.rows),
                          "coproduct_sha256": h.hexdigest(),
                          "renorm_eq": renorm}}
    raise ValueError(w)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _compare_constants(got: dict, want: dict, problems: list) -> None:
    if set(got) != set(want):
        problems.append(f"scales {sorted(got)} != {sorted(want)}")
        return
    for scale, vals in want.items():
        for name, ref in vals.items():
            val = got[scale].get(name)
            if ref is None or val is None:
                if val != ref:
                    problems.append(f"{scale} {name} = {val}, want {ref}")
            elif not math.isfinite(val) \
                    or _rel_err(val, ref) > CONST_REL_TOL:
                problems.append(f"{scale} {name} = {val!r}, want {ref!r} "
                                f"(tol {CONST_REL_TOL:g} rel)")


def _compare_seeded(w: str, got: dict, want: dict, problems: list) -> None:
    if got["noise_checksum"] != want["noise_checksum"]:
        problems.append(f"noise checksum {got['noise_checksum'][:12]}... "
                        f"!= {want['noise_checksum'][:12]}...")
    if w == "converge_d2":
        if len(got["D"]) != len(want["D"]):
            problems.append(f"{len(got['D'])} D rows, want "
                            f"{len(want['D'])}")
            return
        for g, r in zip(got["D"], want["D"]):
            if g[:3] != r[:3]:
                problems.append(f"row {g[:3]} != {r[:3]}")
                continue
            for val, ref, col in zip(g[3:], r[3:], ("D_sup", "D_l2")):
                if _rel_err(val, ref) > D_REL_TOL:
                    problems.append(f"{'/'.join(g[:3])} {col} = {val!r}, "
                                    f"want {ref!r} (tol {D_REL_TOL:g} rel)")


def check(ctx: Context, reference: Optional[dict]) -> tuple[list, list]:
    """Check the repetition; returns (ops, info lines).

    ``reference`` is this workload's entry of ``reference.json`` at this
    size (``{"fixed": ..., "seeds": {noise seed: ...}}``), or None.
    """
    w = ctx.workload
    names = (["enumerate", "coproducts"] if w == "symbolic_d3" else []) \
        + list(ctx.argv)
    ops = {n: Op(n) for n in names}
    info = []
    for n, op in ops.items():
        if n in ctx.errors:
            op.problems.append(f"raised {ctx.errors[n]}")
        elif n not in ctx.results:
            op.problems.append("not run")
        elif n in ctx.argv and ctx.results[n] != 0:
            op.problems.append(f"exit code {ctx.results[n]}")
    if any(not op.ok for op in ops.values()):
        return list(ops.values()), info
    # the output checks belong to the workload's last (or only) operation,
    # except for symbolic_d3 where each output has its own operation
    main = ops[names[-1]]
    try:
        got = extract(ctx)
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        main.problems.append(f"unreadable output: {exc}")
        return list(ops.values()), info

    if w == "converge_d2":
        vals = [x for row in got["seed"]["D"] for x in row[3:]]
        if len(vals) != 36 or not all(math.isfinite(v) for v in vals):
            main.problems.append(f"{len(vals)} D values, want 36 finite")
        info.append(_monotonicity(got["seed"]["D"]))
    elif w == "simulate_d3":
        if got["termination"] != "completed":
            main.problems.append(f"termination {got['termination']!r}")
        if not got["norms"] or not all(math.isfinite(v)
                                       for v in got["norms"]):
            main.problems.append("recorded norms not all finite")
    elif w == "symbolic_d3":
        rows = got["fixed"]["rows"]
        if rows != SYMBOL_ROWS:
            ops["enumerate"].problems.append(f"{rows} rows, want "
                                             f"{SYMBOL_ROWS}")

    if reference is None:
        info.append(f"no reference for {w} at this size: "
                    f"reference checks skipped")
        return list(ops.values()), info
    fixed = reference["fixed"]
    if w == "constants_d3":
        _compare_constants(got["fixed"]["constants"], fixed["constants"],
                           main.problems)
    elif w == "simulate_d3":
        c, ref = got["fixed"]["C_eps"], fixed["C_eps"]
        if _rel_err(c, ref) > CONST_REL_TOL:
            main.problems.append(f"C_eps = {c!r}, want {ref!r}")
    elif w == "symbolic_d3":
        if got["fixed"]["coproduct_sha256"] != fixed["coproduct_sha256"]:
            ops["coproducts"].problems.append("coproduct text digest differs")
        for op, _ in RENORM_EQ:
            if got["fixed"]["renorm_eq"][op] != fixed["renorm_eq"][op]:
                ops[op].problems.append("renorm_eq.json differs from "
                                        "reference")
    if ctx.noise_seed is not None:
        want = reference["seeds"].get(str(ctx.noise_seed))
        if want is None:
            info.append(f"no reference for noise seed {ctx.noise_seed}: "
                        f"seed-dependent checks skipped")
        else:
            _compare_seeded(w, got["seed"], want, main.problems)
    return list(ops.values()), info


def _monotonicity(rows) -> str:
    """Acceptance 9's two ordering conditions, reported for information."""
    def dl2(mode):
        return [r[4] for r in rows if r[0] == mode and r[1] == "u"]
    ren, un = dl2("renormalised"), dl2("unrenormalised")
    dec = all(a > b for a, b in zip(ren, ren[1:]))
    nondec = all(a <= b for a, b in zip(un, un[1:]))
    return ("info (not a check): renormalised D_u "
            f"{'decreasing' if dec else 'NOT decreasing'}, unrenormalised "
            f"D_u {'non-decreasing' if nondec else 'NOT non-decreasing'}")

"""Command-line drivers: symbol tables, renormalised equations, constants,
bound verification, simulation, and convergence sweeps.

Every subcommand writes into its own run directory
``<root>/<subcommand>/<timestamp>-<seed>/`` together with a manifest listing
the resolved configuration, seeds, constants, timing, and a checksummed
inventory of produced files.  The root defaults to ``./out`` and can be moved
with the ``FHNSPDE_OUT`` environment variable.

Exit codes: 0 on success, 2 when a quantity was computed but failed a
requested tolerance check, 1 when a command cannot run or stops (usage or
configuration errors, a run that left the stable regime).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import re
import resource
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .hopf import coproduct
from .kernels import (
    build_truncated_kernel,
    kernel_constants,
    verify_appendix_bounds,
)
from .noise import save_field
from .renorm import CubicPolynomial, renormalized_nonlinearity
from .solver import (
    QSpec,
    RunConfig,
    SystemSpec,
    counterterms_for,
    epsilon_sweep,
    run,
)
from .symbols import (
    Homogeneity,
    StructureError,
    Symbol,
    enumerate_symbols,
    display_name,
    from_text,
    homogeneity,
    to_text,
)

__all__ = [
    "UsageError",
    "parse_symbol_expr",
    "parse_nonlinearity",
    "main",
]


class UsageError(ValueError):
    """Bad flags, bad grammar, or an inconsistent configuration."""


def parse_symbol_expr(text: str, d: int = 3
                      ) -> tuple[Optional[Symbol], list[str]]:
    """Read grammar text to a canonical symbol (None = zero) plus notes;
    the grammar is :func:`symbols.from_text`'s."""
    try:
        return from_text(text, d)
    except StructureError as exc:
        raise UsageError(str(exc)) from exc


def parse_nonlinearity(text: str, n_channels: int = 1) -> CubicPolynomial:
    """Parse a polynomial in u and v (or v1..vn) to the exact coefficient
    record; the grammar is :func:`renorm._read_polynomial`'s."""
    try:
        return CubicPolynomial(text, n_channels)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunDir:
    """Timestamped output directory plus manifest bookkeeping."""

    def __init__(self, subcommand: str, seed: Optional[int] = None):
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        self._base = Path(os.environ.get("FHNSPDE_OUT", "out")) / subcommand
        self._tag = f"{stamp}-{0 if seed is None else seed}"
        self._path: Optional[Path] = None
        self.t0 = time.time()
        self.manifest: dict = {
            "tool_version": __version__,
            "subcommand": subcommand,
            "seed": seed,
            "config": {},
            "constants": {},
        }

    @property
    def path(self) -> Path:
        """The directory, made on first use: a command that fails before
        it writes leaves none behind."""
        if self._path is None:
            path, k = self._base / self._tag, 1
            while path.exists():
                path, k = self._base / f"{self._tag}.{k}", k + 1
            path.mkdir(parents=True)
            self._path = path
        return self._path

    def write_manifest(self) -> Path:
        self.manifest["elapsed_seconds"] = round(time.time() - self.t0, 3)
        # ru_maxrss is in KiB on Linux: the process's peak so far, imports too
        self.manifest["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        inventory = []
        for p in sorted(self.path.iterdir()):
            if p.name == "manifest.json":
                continue
            inventory.append({"file": p.name, "bytes": p.stat().st_size,
                              "sha256": _sha256(p)})
        self.manifest["outputs"] = inventory
        out = self.path / "manifest.json"
        out.write_text(json.dumps(self.manifest, indent=2, sort_keys=True,
                                  default=str))
        return out


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _parse_eps_list(text: str) -> list[float]:
    out = []
    for piece in re.split(r"[,\s]+", text.strip()):
        if not piece:
            continue
        m = re.fullmatch(r"2\^(-?\d+)", piece)
        try:
            val = 2.0 ** int(m.group(1)) if m else float(piece)
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"bad scale {piece!r}") from exc
        if not (math.isfinite(val) and val > 0):
            raise UsageError(f"scale {piece!r} must be finite and positive")
        out.append(val)
    if not out:
        raise UsageError("empty scale list")
    return out


def _channel_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"channel count {n} is negative")
    return n


def _matrix(text: str) -> tuple[tuple[float, ...], ...]:
    rows = [r for r in text.replace(",", " ").split(";") if r.strip()]
    return tuple(tuple(float(x) for x in r.split()) for r in rows)


def load_config(path: str) -> tuple[SystemSpec, RunConfig, dict]:
    """INI sections [grid], [system], [noise], [renorm], [output], [sweep]."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    try:
        grid = cp["grid"]
        system = cp["system"]
        noise_sec = cp["noise"] if cp.has_section("noise") else {}
        out_sec = cp["output"] if cp.has_section("output") else {}

        d = int(system.get("dim", "2"))
        n_channels = int(system.get("channels", "1"))
        F = parse_nonlinearity(system.get("F", "u - u^3 - v"), n_channels)
        A1 = tuple(float(x) for x in
                   system.get("A1", "1.0").replace(",", " ").split())
        A2 = _matrix(system.get("A2", "-1.0"))
        Q = QSpec(A1=A1, A2=A2, T=float(system.get("taper", "0.5")))
        formulation = system.get("formulation", "direct")

        eps = float(noise_sec.get("eps", "0.25"))
        seed = int(noise_sec.get("seed", "0"))
        amplitude = float(noise_sec.get("amplitude", "1.0"))

        renorm_on = cp.getboolean("renorm", "enabled", fallback=True)

        snap = tuple(float(x) for x in
                     out_sec.get("snapshots", "").split()) if out_sec else ()
        config = RunConfig(
            n_space=int(grid.get("n_space", "128" if d == 2 else "32")),
            dt=float(grid.get("dt", "1e-4")),
            t_end=float(grid.get("t_end", "0.1")),
            eps=eps, seed=seed,
            cutoff=float(system.get("cutoff", "1e3")),
            eta=float(system.get("eta", "-0.6")),
            gamma=float(system.get("gamma", "1.5")),
            noise_amplitude=amplitude,
            record_every=int(out_sec.get("record_every", "10")) if out_sec
            else 10,
            snapshot_times=snap,
        )
        sweep = {}
        if cp.has_section("sweep"):
            sweep = {
                "eps_list": _parse_eps_list(cp["sweep"].get("eps_list", "")),
                "t_star": float(cp["sweep"].get("t_star", "0.1")),
            }
        spec = SystemSpec(d=d, F=F, Q=Q, renorm=None, formulation=formulation)
        return spec, config, {"renorm_on": renorm_on, "sweep": sweep}
    except (KeyError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"bad config {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_symbols(args) -> int:
    cutoff = Homogeneity(_parse_fraction(args.cutoff))
    table = enumerate_symbols(args.dim, cutoff, args.channels)
    rows = table.row_patterns() if args.collapse else table.rows
    rd = RunDir("symbols")
    rd.manifest["config"] = {"dim": args.dim, "cutoff": str(cutoff),
                             "channels": args.channels,
                             "collapse": args.collapse}
    lines = [(r.name, to_text(r.symbol), str(r.hom)) for r in rows]
    width = max(len(a) for a, _, _ in lines) if lines else 4
    wexp = max(len(b) for _, b, _ in lines) if lines else 4
    for name, expr, hom in lines:
        print(f"{name:<{width}}  {expr:<{wexp}}  {hom}")
    _write_csv(rd.path / "symbols.csv", ("name", "expr", "homogeneity"),
               lines)
    rd.write_manifest()
    return 0


def cmd_coproduct(args) -> int:
    sym, notes = parse_symbol_expr(args.expr, args.dim)
    for n in notes:
        print("note:", n)
    if sym is None:
        print("0")
        return 0
    ts = coproduct(sym, args.dim)
    rd = RunDir("coproduct")
    rd.manifest["config"] = {"dim": args.dim, "expr": args.expr}
    print(f"input: {display_name(sym)}  ({to_text(sym)})")
    print(f"homogeneity: {homogeneity(sym, args.dim)}")
    print(f"coproduct: {ts}")
    (rd.path / "coproduct.txt").write_text(
        f"{to_text(sym)}\n{ts}\n")
    rd.write_manifest()
    return 0


def cmd_renorm_eq(args) -> int:
    F = parse_nonlinearity(args.F, args.channels)
    eq = renormalized_nonlinearity(F, args.dim)
    rd = RunDir("renorm-eq")
    rd.manifest["config"] = {"dim": args.dim, "F": args.F,
                             "channels": args.channels}
    print(f"F(u, v) = {F.text()}")
    print(f"counterterms: c0 = {eq.c0}, c1 = {eq.c1}, "
          f"c2 = {tuple(str(c) for c in eq.c2)}")
    print(f"C(eps) = {eq.C_eps}")
    print(f"renormalised drift: {eq.fhat_text()}")
    import sympy        # loaded by renormalized_nonlinearity
    lin = sympy.expand(eq.Fhat).coeff(sympy.Symbol("u"), 1)
    if lin != 0:
        print(f"collected linear term: [{lin}] u")
    if eq.obstruction:
        print("obstruction report (no counterterm of the admitted shape "
              "removes these):")
        for coeff, sym in eq.obstruction:
            print(f"  {coeff} * {display_name(sym)}")
    else:
        print("obstruction report: empty")
    payload = {
        "F": F.text(), "dim": args.dim,
        "c0": str(eq.c0), "c1": str(eq.c1),
        "c2": [str(c) for c in eq.c2], "C_eps": str(eq.C_eps),
        "proportional": eq.proportional, "factorized": eq.factorized,
        "obstruction": [[str(c), to_text(s)] for c, s in eq.obstruction],
        "Fhat": eq.fhat_text(),
    }
    (rd.path / "renorm_eq.json").write_text(json.dumps(payload, indent=2))
    rd.manifest["constants"] = {"C_eps": str(eq.C_eps)}
    rd.write_manifest()
    return 0


_I_KEYS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def cmd_constants(args) -> int:
    eps_list = _parse_eps_list(args.eps_list)
    # the manifest keys each scale by 6 significant digits: two scales with
    # one key would compute twice and keep one record
    keys = [f"eps={e:.6g}" for e in eps_list]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise UsageError("scales repeat in the scale list: "
                         + ", ".join(repeated))
    full = args.full or args.dim == 3
    kernel = build_truncated_kernel(args.dim)
    rd = RunDir("constants")
    rd.manifest["config"] = {"dim": args.dim, "eps_list": eps_list,
                             "full": full, "check": args.check}
    header = ["eps", "C1", "C2"] + [f"I{i}{j}" for i, j in _I_KEYS] \
        + ["err_C1"]
    rows = []
    recs = []
    for eps in eps_list:
        c = kernel_constants(args.dim, eps, kernel=kernel, full=full,
                             estimate_errors=args.errors)
        recs.append(c)
        row = [f"{eps:.10g}", f"{c.C1:.12g}",
               "" if c.C2 is None else f"{c.C2:.12g}"]
        row += [f"{c.I[k]:.12g}" if k in c.I else "" for k in _I_KEYS]
        row.append(f"{c.errors.get('C1', float('nan')):.3g}"
                   if c.errors else "")
        rows.append(row)
        print("  ".join(str(x) for x in row))
    _write_csv(rd.path / "constants.csv", header, rows)

    status = 0
    fit: dict = {}
    x = np.log([1.0 / e for e in eps_list])
    c1s = np.array([c.C1 for c in recs])
    if args.dim == 2 and len(eps_list) >= 3:
        slope = float(np.polyfit(x, c1s, 1)[0])
        target = 1.0 / (4.0 * math.pi)
        fit["C1_log_slope"] = slope
        fit["C1_log_slope_target"] = target
        ok = abs(slope - target) <= 0.10 * target
        fit["C1_log_slope_within_10pct"] = bool(ok)
        print(f"fit: C1 ~ ({slope:.6f}) ln(1/eps); target 1/(4 pi) = "
              f"{target:.6f}")
        if args.check and not ok:
            status = 2
    if args.dim == 3 and len(eps_list) >= 2:
        scaled = np.array([e * c.C1 for e, c in zip(eps_list, recs)])
        spread = float(scaled.max() / scaled.min())
        fit["eps_C1_values"] = [float(v) for v in scaled]
        fit["eps_C1_spread"] = spread
        ok = spread <= 1.15
        fit["eps_C1_within_15pct"] = bool(ok)
        print(f"fit: eps*C1 in [{scaled.min():.6f}, {scaled.max():.6f}] "
              f"(ratio {spread:.4f})")
        if args.check and not ok:
            status = 2
    rd.manifest["constants"] = {k: c.as_dict() for k, c in zip(keys, recs)}
    rd.manifest["fit"] = fit
    rd.write_manifest()
    return status


def cmd_verify_bounds(args) -> int:
    eps_list = _parse_eps_list(args.eps_list)
    checks = verify_appendix_bounds(args.dim, eps_list,
                                    theta=args.theta,
                                    trend_tol=args.tol)
    rd = RunDir("verify-bounds")
    rd.manifest["config"] = {"dim": args.dim, "eps_list": eps_list,
                             "theta": args.theta, "trend_tol": args.tol}
    rows = []
    worst = 0.0
    all_ok = True
    for chk in checks:
        ok = chk.passed
        all_ok = all_ok and ok
        worst = max(worst, chk.trend)
        print(f"{chk.name:<42} trend {chk.trend:+.4f}  "
              f"{'ok' if ok else 'FAIL'}")
        for e, r in zip(chk.eps, chk.ratios):
            rows.append([chk.name, f"{e:.8g}", f"{r:.8g}",
                         f"{chk.trend:+.5f}", "ok" if ok else "fail"])
    _write_csv(rd.path / "bounds.csv",
               ("check", "eps", "ratio", "trend", "status"), rows)
    rd.manifest["fit"] = {"worst_trend": worst, "all_ok": all_ok}
    rd.write_manifest()
    return 0 if all_ok else 2


def cmd_simulate(args) -> int:
    spec, config, extra = load_config(args.config)
    config.validate(spec.d, spec.Q.n)
    if extra["renorm_on"]:
        spec.check_renormalisable()
        spec = replace(spec, renorm=counterterms_for(spec.F, spec.d,
                                                     config.eps))
    rd = RunDir("simulate", seed=config.seed)
    res = run(config, spec)
    rd.manifest["config"] = res.manifest
    rd.manifest["termination"] = res.termination
    rd.manifest["t_star"] = res.t_star
    if spec.renorm is not None:
        rd.manifest["constants"] = res.manifest["renorm"]
    _write_csv(rd.path / "norms.csv",
               ("t", "sup_u", "l2_u", "sup_v", "l2_v", "sup_phi"),
               [[f"{t:.10g}", f"{su:.10g}", f"{lu:.10g}", f"{sv:.10g}",
                 f"{lv:.10g}", f"{sp:.10g}"]
                for t, su, lu, sv, lv, sp in zip(
                    res.times, res.norms["sup_u"], res.norms["l2_u"],
                    res.norms["sup_v"], res.norms["l2_v"],
                    res.norms["sup_phi"])])
    from .noise import Field, Lattice
    for t_snap, fields in res.snapshots.items():
        lat = Lattice(d=spec.d, n_space=config.n_space, n_time=1,
                      t_end=config.dt)
        tag = f"{t_snap:g}".replace(".", "p")
        for name in ("u", "phi"):
            f = Field(lattice=lat, values=fields[name][None, ...],
                      meta={"snapshot_t": t_snap, "channel": name})
            save_field(rd.path / f"{name}_t{tag}", f)
    rd.write_manifest()
    print(f"termination: {res.termination}"
          + (f" at t = {res.t_star:g}" if res.t_star is not None else ""))
    print(f"outputs in {rd.path}")
    return 0


def cmd_converge(args) -> int:
    spec, config, extra = load_config(args.config)
    sweep = extra.get("sweep") or {}
    if not sweep.get("eps_list"):
        raise UsageError("converge needs a [sweep] section with eps_list")
    rd = RunDir("converge", seed=config.seed)
    modes = ("renormalised", "unrenormalised") if extra["renorm_on"] \
        else ("unrenormalised",)
    rep = epsilon_sweep(spec, config, sweep["eps_list"],
                        t_star=sweep.get("t_star", 0.1), modes=modes)
    rows = []
    for mode in rep.D:
        for ch in ("u", "v", "phi"):
            for eps, (dsup, dl2) in zip(rep.eps, rep.D[mode][ch]):
                rows.append([mode, ch, f"{eps:.10g}", f"{dsup:.10g}",
                             f"{dl2:.10g}"])
    _write_csv(rd.path / "converge.csv",
               ("mode", "channel", "eps", "D_sup", "D_l2"), rows)
    for row in rows:
        print("  ".join(row))
    contraction = {
        "q_l1": rep.contraction["q_l1"],
        "max_ratio": max(p["max_ratio"]
                         for p in rep.contraction["pairs"].values()),
    }
    print(f"slow-channel contraction: max ratio "
          f"{contraction['max_ratio']:.4f} vs bound "
          f"{1.1 * max(1.0, contraction['q_l1']):.4f}")
    rd.manifest["config"] = rep.manifest
    rd.manifest["contraction"] = contraction
    rd.manifest["noise_checksum"] = rep.noise_checksum
    rd.write_manifest()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):          # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fhnspde", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("symbols", help="graded symbol table")
    sp.add_argument("--dim", type=int, choices=(2, 3), default=3)
    sp.add_argument("--cutoff", default="0",
                    help="homogeneity cutoff as a rational, e.g. 0 or 3/2")
    sp.add_argument("--channels", type=_channel_count, default=0)
    sp.add_argument("--collapse", action="store_true",
                    help="collapse spatial-coordinate orbits")
    sp.set_defaults(func=cmd_symbols)

    sp = sub.add_parser("coproduct", help="structure coproduct of a symbol")
    sp.add_argument("expr")
    sp.add_argument("--dim", type=int, choices=(2, 3), default=3)
    sp.set_defaults(func=cmd_coproduct)

    sp = sub.add_parser("renorm-eq", help="renormalised equation for a cubic")
    sp.add_argument("--dim", type=int, choices=(2, 3), default=3)
    sp.add_argument("--F", required=True)
    sp.add_argument("--channels", type=_channel_count, default=1)
    sp.set_defaults(func=cmd_renorm_eq)

    sp = sub.add_parser("constants", help="renormalisation constants vs eps")
    sp.add_argument("--dim", type=int, choices=(2, 3), default=3)
    sp.add_argument("--eps-list", default="2^-2,2^-3,2^-4")
    sp.add_argument("--full", action="store_true",
                    help="include correlation integrals in d = 2")
    sp.add_argument("--errors", action="store_true",
                    help="estimate grid errors as the gap to the next finer "
                    "level (costs several times the plain run)")
    sp.add_argument("--check", action="store_true",
                    help="exit 2 if the asymptotic fit is out of tolerance")
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("verify-bounds", help="kernel estimate certificates")
    sp.add_argument("--dim", type=int, choices=(2, 3), default=3)
    sp.add_argument("--eps-list", default="2^-3,2^-4,2^-5")
    sp.add_argument("--theta", type=float, default=0.25)
    sp.add_argument("--tol", type=float, default=0.1)
    sp.set_defaults(func=cmd_verify_bounds)

    sp = sub.add_parser("simulate", help="integrate one configured run")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("converge", help="common-noise scale sweep")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_converge)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        # usage errors, inconsistent configurations and runs that left the
        # stable regime
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the outputs the benchmark checks against, into reference.json.

    python3 perfbench/record_reference.py --size quick --seeds 0-63 \
        [--workload converge_d2 ...]

Run from the root of a checkout, at the commit whose outputs are the
reference.  Each workload runs once per distinct noise seed in this process;
the seed-independent outputs must agree across seeds.  A failed check is
printed as a warning and the outputs are recorded all the same.  Entries for other sizes,
workloads and seeds already in the file are kept.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=workloads.SIZES, default="quick")
    ap.add_argument("--seeds", default="0-63",
                    help="seeds for the seed-dependent workloads, "
                         "e.g. 0-63 or 1,4")
    ap.add_argument("--workload", nargs="*", default=list(workloads.NAMES))
    args = ap.parse_args()

    path = HERE / "reference.json"
    refs = json.loads(path.read_text())
    work = ROOT / ".perfbench" / f"record-{os.getpid()}"
    for w in args.workload:
        entry = refs.setdefault(args.size, {}).setdefault(
            w, {"fixed": None, "seeds": {}})
        done = set()
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            ctx = workloads.prepare(w, args.size, seed, work)
            if ctx.noise_seed in done:
                continue            # the seed does not change this workload
            done.add(ctx.noise_seed)
            workloads.operate(ctx)
            ops, _ = workloads.check(ctx, None)
            for op in ops:
                for problem in op.problems:
                    # recorded all the same: the reference is what this
                    # commit outputs, and the failure stays visible
                    print(f"warning: {w} {op.name}: {problem}", flush=True)
            got = workloads.extract(ctx)
            shutil.rmtree(work, ignore_errors=True)
            if entry["fixed"] is None:
                entry["fixed"] = got["fixed"]
            elif entry["fixed"] != got["fixed"]:
                raise SystemExit(f"{w}: seed-independent outputs differ at "
                                 f"seed {seed}")
            if ctx.noise_seed is not None:
                entry["seeds"][str(ctx.noise_seed)] = got["seed"]
            print(f"{args.size} {w} noise seed {ctx.noise_seed}: recorded",
                  flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

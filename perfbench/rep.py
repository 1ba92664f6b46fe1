"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with the wall-clock time of the launch.  It imports
``fhnspde.cli`` from the checkout's ``src``, writes the inputs, runs the
workload (traced or not), checks the outputs and writes one JSON record:

    python3 perfbench/rep.py --workload W --seed N --size quick \
        --trace 0 --work DIR --launched T --out FILE
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    import ctypes
    import numpy as np
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": dep.get("name"), "version": dep.get("version"),
           "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        out["threads"] = get()
    return out


def environment() -> dict:
    import numpy
    import scipy
    import sympy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": _blas()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import fhnspde.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    ctx = workloads.prepare(args.workload, args.size, args.seed,
                            Path(args.work))
    setup_s = time.time() - args.launched

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        workloads.operate(ctx)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = json.loads((HERE / "reference.json").read_text())
    ops, info = workloads.check(
        ctx, refs.get(args.size, {}).get(args.workload))
    record = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "ops": [{"name": op.name, "ok": op.ok, "problems": op.problems}
                for op in ops],
        "info": info,
        "env": environment(),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

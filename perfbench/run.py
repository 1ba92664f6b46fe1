"""fhnspde benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload converge_d2 --seed 4 --seconds 20 \
        --trace 0 [--size quick|full]

Run from the root of a checkout.  Repetitions run one at a time, each in a
new interpreter started by this process (``rep.py``), until the next one
would end after ``--seconds`` (at least three; with ``--trace 1``, two
untraced and one traced).  With ``--trace 0`` the end-to-end metrics are
reported as medians over the repetitions; with ``--trace 1`` the per-layer
metrics of the traced repetition.  The last line of standard output is one
JSON object; a readable summary precedes it, and a result file with the
environment and every repetition goes to ``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = {"quick": 170, "full": 1800}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict:
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["noise.materialised_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


def run_rep(args, work: Path, index: int, trace: bool) -> dict:
    """Start one repetition, wait for it, and return its record."""
    rep_dir = work / f"rep{index}"
    out = rep_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(trace)),
           "--work", str(rep_dir), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--launched", repr(time.time())],
                          capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S[args.size])
    duration = time.perf_counter() - t0
    shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"repetition exited with code {proc.returncode}")
    record = json.loads(out.read_text())
    out.unlink()
    record["duration_s"] = duration
    record["traced"] = trace
    return record


def repetitions(args, work: Path) -> list:
    reps = []
    start = time.perf_counter()
    untraced_min = 2 if args.trace else MIN_REPS
    # with tracing, leave room for the traced repetition at the end
    room = 2 if args.trace else 1
    while True:
        if len(reps) >= untraced_min:
            typical = statistics.median(r["duration_s"] for r in reps)
            if time.perf_counter() - start + room * typical > args.seconds:
                break
        reps.append(run_rep(args, work, len(reps), trace=False))
    if args.trace:
        reps.append(run_rep(args, work, len(reps), trace=True))
    return reps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="quick")
    args = ap.parse_args()

    if not (ROOT / "src" / "fhnspde" / "cli.py").is_file():
        print(f"no fhnspde sources under {ROOT / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_start = os.getloadavg()
    try:
        reps = repetitions(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = os.getloadavg()

    plain = [r for r in reps if not r["traced"]]
    ops = [op for r in reps for op in r["ops"]]
    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    info = sorted({line for r in reps for line in r["info"]})
    problems = [f"{op['name']}: {p}" for op in ops for p in op["problems"]]

    print(f"workload {args.workload} ({args.size}), seed {args.seed}: "
          f"{len(plain)} untraced repetitions, each in a fresh interpreter")
    e2e = {}
    for name, unit in END_TO_END:
        vals = [r[name] for r in plain]
        e2e[name] = {"value": statistics.median(vals), "unit": unit}
        print(f"  {name:<12} {e2e[name]['value']:10.4f} {unit:<3} median of "
              f"{len(vals)} (min {min(vals):.4f}, max {max(vals):.4f})")
    print(f"  no tail percentile: {len(plain)} samples leave fewer than "
          f"ten beyond any percentile")
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.4f} "
          f"of checked operations")
    for line in info + problems:
        print("  " + line)

    metrics = e2e
    if args.trace:
        traced = reps[-1]
        layers = tracer.layer_metrics(traced["spans"])
        layers["noise.materialised_mb"] = \
            tracer.materialised_noise_mb(traced["spans"])
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]["value"]
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        print(f"  traced repetition: wall_s {traced['wall_s']:.4f} s, "
              f"peak_rss_mb {traced['peak_rss_mb']:.1f} MB (measured), "
              f"noise.materialised_mb "
              f"{layers['noise.materialised_mb']:.1f} MB (computed)")
        for k in units:
            if k.endswith(".calls") and layers[k]:
                stem = k[:-len(".calls")]
                print(f"    {stem:<34} self {layers[stem + '.self_s']:9.4f} s"
                      f"  calls {layers[k]}")
        for r in reps:
            r.pop("spans", None)

    env = dict(plain[0]["env"], nproc=os.cpu_count(),
               loadavg_start=load_start, loadavg_end=load_end,
               openblas_num_threads_env=os.environ.get(
                   "OPENBLAS_NUM_THREADS"))
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{args.workload}-{args.size}-seed{args.seed}-trace"
               f"{args.trace}-{stamp}.json").write_text(json.dumps({
                   "workload": args.workload, "size": args.size,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env,
                   "metrics": metrics, "attempted": attempted,
                   "failed": failed, "info": info, "problems": problems,
                   "repetitions": reps}, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

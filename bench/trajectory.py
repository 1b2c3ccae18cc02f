"""One point of the performance trajectory: every workload at ten seeds,
one traced run per workload, and the `scan` growth curve, written to
`bench/BENCH_<tag>.json`.

    python3 bench/trajectory.py --tag seed

Each run measures for `run_seconds` of BENCHMARK.json.  For each workload
and end-to-end metric it records the median, quartiles and spread
(interquartile distance over median) of the per-run values, the per-run
values themselves, the pooled per-iteration samples with their tail
percentile, and the traced run's per-layer metrics and tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def _run(args: list[str]) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    trace = args[args.index("--trace") + 1]
    workload = args[args.index("--workload") + 1]
    with open(os.path.join(OUT, f"result-{workload}-{trace}.json"), encoding="utf-8") as f:
        return json.load(f)


def spread(values: list[float]) -> dict:
    """`run.summary` of the per-run values, with the interquartile distance
    over the median (None when the median is 0, as for a phase the workload
    does not run) and the values themselves."""
    out = bench_run.summary(values)
    out["spread"] = (out["q3"] - out["q1"]) / out["median"] if out["median"] else None
    out["runs"] = values
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", required=True, help="written to bench/BENCH_<tag>.json")
    args = p.parse_args(argv)
    spec = bench_run.load_spec()
    seconds = str(spec["run_seconds"])
    point = {"tag": args.tag, "seconds": spec["run_seconds"], "workloads": {}}
    for name in workloads.NAMES:
        runs = []
        for seed in SEEDS:
            res = _run(["--workload", name, "--seed", str(seed),
                        "--seconds", seconds, "--trace", "0"])
            runs.append(res)
            print(f"{name} seed {seed}: wall_s "
                  f"{res['end_to_end']['wall_s']['median']:.4f} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        traced = _run(["--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                       "--seconds", seconds, "--trace", "1"])
        metrics = runs[0]["end_to_end"].keys()
        point["machine"] = runs[0]["machine"]
        point["workloads"][name] = {
            "why": bench_run.why(spec)[name],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "end_to_end": {m: spread([r["end_to_end"][m]["median"] for r in runs])
                           for m in metrics},
            "pooled": {m: bench_run.summary([v for r in runs for v in r["samples"][m]])
                       for m in metrics},
            "ops_s": {k: statistics.median(r["ops_s"][k]["median"] for r in runs)
                      for k in runs[0]["ops_s"]},
            "layers": traced["layers"],
        }
    subprocess.run([sys.executable, os.path.join(HERE, "growth.py")],
                   cwd=ROOT, check=True)
    with open(os.path.join(OUT, "growth.json"), encoding="utf-8") as f:
        point["growth_scan_cbrt2"] = json.load(f)["rows"]
    path = os.path.join(HERE, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, w in point["workloads"].items():
        print(name, {m: s["spread"] for m, s in w["end_to_end"].items()})
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

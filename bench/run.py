"""The simra benchmark: one command, four workloads, outputs gated on
golden hashes.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports
`simra` from the checkout's `src/`.  Workloads (see `workloads.py`):

  scan      enumerate cbrt2 to 2e5, sqrt2-even-x0 to 1e6 (the x0 scan)
  certify   sublattice enumerate, then the oracle cross-check at X = 2000
  analyze   enumerate cbrt2 to 1e5, then six `--run` analyses of that run
  spectrum  lambda-n, frontier n=3 and n=5, schmidt-fuzz (the control)

The loop is closed, with one client and no threads: each iteration is a
fresh Python process (`worker.py`) that sets up, runs the workload's
operations in order and exits; the next starts when it has ended.  A run
first takes a few set-up-only samples, then iterates until `--seconds` of
measuring have passed (checks outside the timed region do not count).

Timing: the host is shared, and its speed changes by up to 2x from one
second to the next.  So every untraced worker runs the speed probe of
`speed.py`, and `wall_s` (the workload's operations), `setup_s` and the
phase times are given at the probe's fixed reference speed: the clock time
without the probe's chunks, times the mean speed sampled over that time.
The clock readings themselves are printed and recorded as `wall_clock_s`
and `setup_clock_s`.

Correctness: an operation fails on a nonzero exit, a raised error, an
output whose sha256 differs from `golden.json` (or, for seed-dependent
outputs at another seed, a broken invariant), an output that differs from
the first iteration's, or oracle disagreement.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics (medians over iterations); with `--trace 1` it holds
the per-layer metrics of traced iterations (see `spans.py`), which
alternate with untraced ones so that the tracing overhead is measured in
the same run.  Lines before it are a readable report, and the full record
(every sample, quartiles, machine) is written to
`.bench_out/result-<workload>-<trace>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

import golden  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 170

# (name, unit): the end-to-end metrics of the result line, each the median
# of its samples in the run.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Time in each kind of operation; printed with the end-to-end metrics, but
# not in the result line because each is 0 on some workload.
PHASES = {
    "enumerate_s": ("enumerate",),
    "analysis_s": workloads.RUN_SUBCOMMANDS,
    "verify_s": ("oracle",),
}

MACHINE_NOTE = ("shared machine: other tenants' load moves wall times; the "
                "prototype scan spread 4.7-6.0 s over three runs, analyze "
                "10.8-11.0 s")


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_worker(workload: str, seed: int, trace: bool, invariants: bool = False,
               setup_only: bool = False) -> dict:
    """Run one fresh worker process to its end and return its result."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}")
    result_path = os.path.join(OUT, f"worker-{workload}.json")
    shutil.rmtree(workdir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SIMRA_PRECISION_CAP", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir,
           "--result", result_path, "--trace", str(int(trace)),
           "--invariants", str(int(invariants))]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    os.remove(result_path)
    shutil.rmtree(workdir, ignore_errors=True)
    result["process_s"] = elapsed
    return result


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(samples: list[float]):
    """(p, value) for the highest of p50/p75/p90/p95/p99 with at least ten
    samples above it (nearest rank), or None when there are fewer than 20."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return p, sorted(samples)[rank - 1]
    return None


def summary(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples),
           "min": min(samples), "max": max(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    tail = tail_percentile(samples)
    if tail:
        out[f"p{tail[0]}"] = tail[1]
    return out


# ---------------------------------------------------------------------------
# correctness

def check_iterations(iterations: list[dict], seed: int) -> tuple[int, list[str]]:
    """(attempted operations, failure messages) over all iterations."""
    gold = golden.load_golden()["artifacts"]
    first: dict[str, dict] = {}
    attempted, failures = 0, []
    for i, it in enumerate(iterations):
        for op in it["ops"]:
            label = op["label"]
            problems = ([op["error"]] if op["error"] else []) + op["invariant_failures"]
            if not op["seeded"] or seed == workloads.DEFAULT_SEED:
                problems += golden.check_outputs(label, op["outputs"], gold)
            keyed = {f"{label}/{p}": r for p, r in op["outputs"].items()}
            if i == 0:
                first.update(keyed)
            else:
                problems += [f"differs from iteration 0: {m}" for m in
                             golden.check_outputs(label, op["outputs"], first)]
            attempted += 1
            if problems:
                failures.append(f"iteration {i} {label}: " + "; ".join(problems))
    return attempted, failures


# ---------------------------------------------------------------------------
# machine record

def _git_commit() -> str | None:
    """HEAD of the checkout's own repository, or None (with a warning) when
    the checkout is not a git repository; enclosing repositories are not
    searched."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        proc = None
    if proc is None or proc.returncode != 0:
        print("warning: no git commit found; the result records commit null "
              "(source_sha256 still identifies the code)", file=sys.stderr)
        return None
    return proc.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "simra")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def machine(worker_result: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": worker_result["python"],
            "mpmath": worker_result["mpmath"],
            "platform": platform.platform(),
            "commit": _git_commit(),
            "source_sha256": _source_digest(),
            "note": MACHINE_NOTE}


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples, then iterations until `seconds` of measuring."""
    measured = 0.0
    setups = []
    for _ in range(SETUP_SPAWNS):
        r = run_worker(workload, seed, trace=False, setup_only=True)
        setups.append(r)
        measured += r["process_s"]
    iterations = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        first = not iterations
        r = run_worker(workload, seed, trace=traced,
                       invariants=first and seed != workloads.DEFAULT_SEED)
        r["traced"] = traced
        iterations.append(r)
        measured += r["process_s"] - r["check_s"]
        both = not trace or len(iterations) >= 2
        if measured >= seconds and both:
            break
    return {"setups": setups, "iterations": iterations}


def aggregate(workload: str, seed: int, seconds: float, trace: bool, raw: dict,
              spec: dict) -> dict:
    its = raw["iterations"]
    plain = [it for it in its if not it["traced"]]
    traced = [it for it in its if it["traced"]]
    setups = raw["setups"] + plain
    samples = {
        "wall_s": [sum(op["s"] for op in it["ops"]) * it["speed"] for it in plain],
        "setup_s": [r["setup_s"] * r["setup_speed"] for r in setups],
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
        "wall_clock_s": [sum(op["s"] for op in it["ops"]) for it in plain],
        "setup_clock_s": [r["setup_s"] for r in setups],
    }
    for phase, subs in PHASES.items():
        samples[phase] = [sum(op["s"] for op in it["ops"] if op["subcommand"] in subs)
                          * it["speed"] for it in plain]
    ops: dict[str, list[float]] = {}
    for it in plain:
        for op in it["ops"]:
            ops.setdefault(op["label"], []).append(op["s"])
    attempted, failures = check_iterations(its, seed)
    out = {
        "workload": workload, "why": why(spec)[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "machine": machine(its[0]),
        "iterations": len(its), "set_ups": len(samples["setup_s"]),
        "attempted": attempted, "failed": len(failures),
        "op_error_rate": len(failures) / attempted,
        "failures": failures,
        "end_to_end": {k: summary(v) for k, v in samples.items()},
        "samples": samples,
        "ops_s": {k: summary(v) for k, v in ops.items()},
    }
    if trace:
        layer_names = traced[0]["layers"].keys()
        out["layers"] = {k: statistics.median(it["layers"][k] for it in traced)
                         for k in layer_names}
        out["layers"]["trace.overhead"] = (
            statistics.median(sum(op["s"] for op in it["ops"]) for it in traced)
            / out["end_to_end"]["wall_clock_s"]["median"])
    return out


def why(spec: dict) -> dict[str, str]:
    """Each workload's reason, as BENCHMARK.json gives it."""
    return {w["name"]: w["why"] for w in spec["workloads"]}


def _fmt(s: dict, unit: str) -> str:
    text = f"median {s['median']:.4f} {unit}"
    if "q1" in s:
        text += f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
    tail = [k for k in s if k.startswith("p") and k[1:].isdigit()]
    text += (f"  {tail[0]} {s[tail[0]]:.4f}" if tail
             else "  (no tail percentile: fewer than 20 samples)")
    return text + f"  n={s['n']}"


def report(res: dict) -> list[str]:
    m = res["machine"]
    lines = [f"simra bench  workload={res['workload']} seed={res['seed']} "
             f"trace={res['trace']} iterations={res['iterations']} "
             f"set-ups={res['set_ups']}",
             f"  nproc={m['nproc']} python={m['python']} mpmath={m['mpmath']} "
             f"commit={m['commit']} ({m['note']})"]
    units = dict(END_TO_END)
    for name, s in res["end_to_end"].items():
        lines.append(f"  {name:<12} {_fmt(s, units.get(name, 's'))}")
    lines.append(f"  op_error_rate {res['failed']}/{res['attempted']} = "
                 f"{res['op_error_rate']:.4f}")
    for label, s in res["ops_s"].items():
        lines.append(f"    op {label:<24} median {s['median']:.4f} s  n={s['n']}")
    for msg in res["failures"]:
        lines.append(f"  FAILED {msg}")
    for name, value in sorted(res.get("layers", {}).items()):
        lines.append(f"  layer {name:<36} {value:.6g}")
    return lines


def result_line(res: dict, spec: dict) -> dict:
    if res["trace"]:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="simra benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "simra", "__init__.py")):
        print(f"error: no simra sources under {ROOT}/src; run the benchmark "
              "inside a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        raw = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    res = aggregate(args.workload, args.seed, seconds, bool(args.trace), raw, spec)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(res, f, indent=1)
    print("\n".join(report(res)))
    print(json.dumps(result_line(res, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One iteration of one workload, in a fresh Python process.

`run.py` starts this script once per iteration (and once per extra set-up
sample) and reads the JSON it leaves in `--result`.  The process imports
`simra` from the checkout's `src/`, loads every target the workload uses,
then runs the operations in order and times each one.  Set-up is the time
from the moment the parent started this process (`--spawn-ns`, on the
system-wide monotonic clock) to the start of the first operation.  An
untraced process also runs the speed probe (`speed.py`): set-up and each
operation are timed without the probe's chunks, and the result holds the
mean speed over set-up and over the operations.

Everything after the last operation (hashing outputs, invariant checks,
tracing summaries) is outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def _snapshot(workdir: str) -> dict[str, tuple[int, int]]:
    out = {}
    for base, _, files in os.walk(workdir):
        for name in files:
            st = os.stat(os.path.join(base, name))
            out[os.path.join(base, name)] = (st.st_size, st.st_mtime_ns)
    return out


def _bytes_written(before: dict, after: dict) -> int:
    return sum(size for path, (size, mtime) in after.items()
               if before.get(path) != (size, mtime))


def _run_cli(cli, argv: list[str]) -> str | None:
    """Run one command line; None when it succeeded, else why it failed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the command line
        return f"exit {e.code}"
    except Exception as e:  # the benchmark keeps going and counts the failure
        return f"{type(e).__name__}: {e}"
    if rc != 0:
        return f"exit {rc}: {buf.getvalue().strip()[:500]}"
    return None


def _oracle_check(minpoints, loaded: dict, presets, x_max: int) -> tuple[dict, list[str]]:
    """Fast enumeration against `exhaustive_scan`, then properties (a)-(c)."""
    doc, problems = {}, []
    for name in presets:
        target, approx = loaded[name]
        fast = minpoints.enumerate_minimal_points(target, approx, x_max)
        slow = minpoints.exhaustive_scan(target, approx, x_max)
        if fast.points() != slow.points():
            problems.append(f"{name}: enumerate_minimal_points != exhaustive_scan")
        minpoints.verify_properties(fast)
        checked = minpoints.verify_minimality(fast)
        doc[name] = {"points": [list(p) for p in fast.points()],
                     "minimalityChecked": checked}
    return doc, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--invariants", type=int, default=0)
    args = p.parse_args(argv)
    # Untraced runs sample the machine's speed from here to the last
    # operation; traced runs do not, so that no probe time lands in a span.
    probe = None if args.trace else speed.Probe()
    if probe:
        probe.start()

    sys.path.insert(0, SRC)
    import simra
    if not os.path.abspath(simra.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"simra imported from {simra.__file__}, not from {SRC}")
    import mpmath
    from simra import cli, minpoints, model

    import golden
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(simra)

    wl = workloads.build(args.workload, args.seed)
    loaded = {name: model.load_target(doc) for name, doc in wl.targets.items()}
    os.makedirs(args.workdir)
    for name, text in wl.files.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as f:
            f.write(text)
    os.chdir(args.workdir)
    setup_ns = time.monotonic_ns() - args.spawn_ns

    result = {"setup_s": setup_ns * 1e-9, "mpmath": mpmath.__version__,
              "python": sys.version.split()[0]}
    if probe:
        mark = probe.mark()
        result["setup_s"] = probe.own_ns(setup_ns, 0, mark) * 1e-9
        result["setup_speed"] = speed.speed(probe.chunks[:mark])
        if args.setup_only:
            probe.stop()
    if not args.setup_only:
        ops, written, op_chunks = [], 0, []
        for idx, op in enumerate(wl.ops):
            before = _snapshot(".")
            if tracer:
                tracer.current_op = idx
                span = tracer.open(spans.OP_PREFIX + op.subcommand
                                   if op.argv is not None else op.subcommand)
            oracle_doc = problems = None
            mark = probe.mark() if probe else 0
            t0 = time.perf_counter_ns()
            if op.argv is not None:
                error = _run_cli(cli, op.argv)
            else:
                try:
                    oracle_doc, problems = _oracle_check(
                        minpoints, loaded, workloads.ORACLE_PRESETS,
                        workloads.ORACLE_XMAX)
                    error = "; ".join(problems) or None
                except Exception as e:  # oracle disagreement or a raised error
                    error = f"{type(e).__name__}: {e}"
            elapsed_ns = time.perf_counter_ns() - t0
            if probe:
                until = probe.mark()
                elapsed_ns = probe.own_ns(elapsed_ns, mark, until)
                op_chunks += probe.chunks[mark:until]
            elapsed = elapsed_ns * 1e-9
            if tracer:
                tracer.close(span)
                tracer.current_op = -1
            if oracle_doc is not None:
                with open(op.outputs[0], "w", encoding="utf-8") as f:
                    json.dump(oracle_doc, f, sort_keys=True, indent=1)
                    f.write("\n")
            if op.argv is not None:
                written += _bytes_written(before, _snapshot("."))
            outputs = {path: golden.record(path) for path in op.outputs
                       if os.path.exists(path)}
            if not error and len(outputs) != len(op.outputs):
                error = "missing outputs: " + ", ".join(
                    sorted(set(op.outputs) - set(outputs)))
            ops.append({"label": op.label, "subcommand": op.subcommand,
                        "seeded": op.seeded, "s": elapsed, "error": error,
                        "outputs": outputs, "invariant_failures": []})
        if probe:
            probe.stop()
            result["speed"] = speed.speed(op_chunks)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["ops"] = ops

        t_check = time.perf_counter()
        if args.invariants:
            for rec, op in zip(ops, wl.ops):
                if op.seeded and not rec["error"]:
                    rec["invariant_failures"] = golden.invariant_failures(
                        op.label, ".", args.seed, loaded)
        if tracer:
            tracer.uninstall()
            all_spans = tracer.spans()
            layers = spans.layer_metrics(all_spans, tracer.counters,
                                         workloads.RUN_SUBCOMMANDS)
            layers["cli.bytes_written"] = written
            result["layers"] = layers
            tracer.write(os.path.join(ROOT, ".bench_out",
                                      f"spans-{args.workload}.jsonl.gz"),
                         [op.label for op in wl.ops])
        result["check_s"] = time.perf_counter() - t_check

    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

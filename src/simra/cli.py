"""Command-line surface: persistent runs, reports, tables, and plots.

A run is a directory made by `enumerate`: the minimal-point CSV plus a
manifest recording the target configuration, the range, and a content hash
of every artifact.  Downstream subcommands take --run, check the stored CSV
against its recorded hash, read the sequence back from it (nothing is
re-enumerated), and add their own artifacts to the manifest.  `verify`
re-certifies a run's sequence from scratch.

Each subcommand is a function from its parsed flags to its output: a run
subcommand gets the run's sequence and returns (artifact name, report,
stdout line); any other returns its text or report.  `main` alone reads and
writes run directories, serializes reports, and writes to --out or stdout.

Dispatch: one table, `_SUBCOMMANDS`, lists each subcommand with its handler,
summary and flags.  `main` builds the parser of the subcommand its first
argument names, and the full parser only for --help, no argument, or an
unknown name; help, errors and exit codes are the full parser's either way.

All decimal output is fixed at 15 significant digits and dictionary keys are
sorted, so identical flags give byte-identical files.  Module errors, and a
numeric flag that is not a rational (SchemaError), exit nonzero after
printing a one-object error JSON to stdout.

Environment: SIMRA_PRECISION_CAP sets the one precision cap in bits (default
4096); `enumerate` records the cap in force in the manifest.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import (construction, minpoints, model, presets, rigorous, spectra,
               subspaces, transference)
from .errors import DomainError, SchemaError, SimraError
from .ivcalc import midpoint_float, rig_interval
from .reporting import format_significant, json_canonical, sha256_hex

MANIFEST = "manifest.json"
POINTS_CSV = "minimal_points.csv"


def _fixed(obj):
    """Floats to 15-significant-digit strings, Fractions to p/q strings."""
    if isinstance(obj, float):
        return format_significant(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _fixed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fixed(v) for v in obj]
    return obj


def _rational(text) -> Fraction:
    """A rational flag or manifest field; SchemaError naming what is not one."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{text!r} is not a rational number") from None


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return "sha256:" + sha256_hex(text.encode("utf-8"))


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise SchemaError(f"{what}: {e}") from None


# ---------------------------------------------------------------------------
# enumerate and run loading

def _cmd_enumerate(args) -> str:
    cap = rigorous.precision_cap()
    doc = (presets.preset_config(args.preset) if args.preset else
           _read_json(args.config, "configuration is not valid JSON"))
    target, approx = model.load_target(doc)
    seq = minpoints.enumerate_minimal_points(target, approx, args.xmax)
    os.makedirs(args.run_dir, exist_ok=True)
    buf = io.StringIO()
    minpoints.write_csv(seq, buf)
    csv_path = os.path.join(args.run_dir, POINTS_CSV)
    manifest = {
        "tool": "simra",
        "command": "enumerate",
        "config": doc,
        "xMax": str(args.xmax),
        "cap": cap,
        "entries": len(seq.entries),
        "files": {POINTS_CSV: _write_text(csv_path, buf.getvalue())},
    }
    _write_text(os.path.join(args.run_dir, MANIFEST), json_canonical(manifest))
    return f"{len(seq.entries)} minimal points -> {csv_path}\n"


def _load_run(run_dir: str):
    """(sequence, manifest) of a run directory, read from its CSV.

    The CSV must match the sha256 the manifest records for it, pass the row
    checks of `minpoints.read_csv`, and hold the manifest's number of
    entries.  The enumeration is not repeated; `simra verify --run`
    re-certifies the sequence.
    """
    path = os.path.join(run_dir, MANIFEST)
    if not os.path.exists(path):
        raise DomainError(f"{run_dir} has no {MANIFEST}; not a run directory")
    manifest = _read_json(path, "unreadable manifest")
    for key in ("config", "xMax", "entries"):
        if key not in manifest:
            raise SchemaError(f"manifest lacks {key!r}")
    target, approx = model.load_target(manifest["config"])
    csv_path = os.path.join(run_dir, POINTS_CSV)
    try:
        with open(csv_path, "rb") as f:
            data = f.read()
    except OSError:
        data = None
    if data is None or ("sha256:" + sha256_hex(data)
                        != manifest.get("files", {}).get(POINTS_CSV)):
        raise DomainError(
            f"{POINTS_CSV} does not match its manifest hash; "
            "the run directory was edited"
        )
    try:
        text = io.StringIO(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise SchemaError(f"{csv_path} is not UTF-8: {e}") from None
    text.name = csv_path
    seq = minpoints.read_csv(target, approx, _rational(manifest["xMax"]), text)
    if len(seq.entries) != manifest["entries"]:
        raise SchemaError(f"{csv_path} has {len(seq.entries)} rows, the manifest "
                          f"records {manifest['entries']} entries")
    return seq, manifest


def _cmd_verify(args, seq):
    minpoints.verify_properties(seq)
    checked = minpoints.verify_minimality(seq)
    report = {
        "entries": len(seq.entries),
        "properties": {"checked": ["(a) norms increase", "(b) errors decrease"],
                       "pairs": len(seq.entries) - 1},
        "minimality": {"checked": ["(c) minimality", "start convention"],
                       "upToX": str(seq.x_max),
                       "candidatesBelowLastEntry": checked},
    }
    return ("verify.json", report,
            f"{len(seq.entries)} minimal points certified up to X = {seq.x_max}")


# ---------------------------------------------------------------------------
# analysis subcommands on runs

def _cmd_exponents(args, seq):
    est = transference.estimate_exponents(seq, args.tail)
    report = {
        "lambdaEst": est.lambda_est,
        "lambdaHatEst": est.lambda_hat_est,
        "lambdaEnclosure": list(est.lambda_enclosure),
        "lambdaHatEnclosure": list(est.lambda_hat_enclosure),
        "windowStart": est.window_start,
        "windowSize": est.window_size,
        "ordinarySeries": est.ordinary_series,
        "uniformSeries": est.uniform_series,
        "tailFraction": args.tail,
    }
    return ("exponents.json", report,
            f"lambda_est {format_significant(est.lambda_est)}  "
            f"lambda_hat_est {format_significant(est.lambda_hat_est)}")


def _cmd_construct(args, seq):
    indices = construction.select_indices(seq, args.i0)
    fam = construction.build_subspace_family(seq, indices)
    report = construction.family_report(fam, seq)
    ok = report["identities"]["allPass"]
    return (f"family_i0_{args.i0}.json", report,
            f"family at i0={args.i0}: indices {indices}, "
            f"identities {'pass' if ok else 'FAIL'}")


def _fit_power(x: Fraction, e: Fraction, constant: str) -> Fraction:
    """x^e for the fit of `constant`, in floats; DomainError past their range."""
    try:
        return Fraction(float(x) ** float(e)).limit_denominator(10 ** 9)
    except OverflowError:
        exponent = {"a": "alpha", "b": "beta"}[constant]
        raise DomainError(
            f"cannot fit the constant {constant}: X^{exponent} exceeds the double "
            f"range at X = {float(x):.6g}; pass --{constant}") from None


def _fit_profile(seq, alpha: Fraction, beta: Fraction,
                 a: Optional[Fraction], b: Optional[Fraction]):
    """Fill missing sandwich constants from the run data with 10% slack."""
    fitted = {"a": a is None, "b": b is None}
    if a is None or b is None:
        hi = Fraction(0)
        lo = None
        ents = seq.entries
        for i, e in enumerate(ents):
            l_mid = Fraction(midpoint_float(rig_interval(e.l_value)))
            if fitted["a"]:
                x_hi = (Fraction(midpoint_float(rig_interval(ents[i + 1].x_value)))
                        if i + 1 < len(ents) else Fraction(seq.x_max))
                hi = max(hi, l_mid * _fit_power(x_hi, alpha, "a"))
            if fitted["b"]:
                x_lo = max(Fraction(1),
                           Fraction(midpoint_float(rig_interval(e.x_value))))
                cand_b = l_mid * _fit_power(x_lo, beta, "b")
                lo = cand_b if lo is None else min(lo, cand_b)
        if a is None:
            a = (hi * Fraction(11, 10)).limit_denominator(10 ** 9)
        if b is None:
            b = (lo * Fraction(9, 10)).limit_denominator(10 ** 9)
    profile = transference.TransferenceProfile(seq.target.n, a, b, alpha, beta)
    return profile, fitted


def _cmd_transfer(args, seq):
    profile, fitted = _fit_profile(seq, args.alpha, args.beta, args.a, args.b)
    report = transference.check_sandwich(seq, profile, grid_count=args.grid)
    report["constantsFitted"] = fitted
    return ("transfer.json", report,
            f"sandwich holds on every envelope step up to X = {seq.x_max}; "
            f"empirical floor of the top product "
            f"{format_significant(report['empiricalC'])}")


def _cmd_extremal(args, seq):
    pts = [e.point.coords for e in seq.entries]
    report = transference.verify_extremal_sequence(
        pts, seq, args.alpha, args.beta, args.eps, args.C)
    return ("extremal.json", report,
            f"conditions {'all pass' if report['allPass'] else 'FAIL'} "
            f"(threshold ok: {report['thresholdOK']})")


# ---------------------------------------------------------------------------
# standalone tables and reports

def _cmd_frontier(args) -> str:
    buf = io.StringIO()
    spectra.write_frontier_csv(buf, args.n, args.grid)
    return buf.getvalue()


def _cmd_lambda_n(args) -> str:
    if not args.out:
        return format_significant(float(spectra.lambda_n(args.n))) + "\n"
    buf = io.StringIO()
    spectra.write_lambda_csv(buf, args.n)
    return buf.getvalue()


def _cmd_schmidt_fuzz(args) -> dict:
    return subspaces.schmidt_fuzz(args.dim, args.count, args.seed)


def _cmd_liouville(args) -> dict:
    try:
        coeffs = [int(c) for c in args.minpoly.split(",")]
    except ValueError as e:
        raise SchemaError(f"--minpoly must be comma-separated integers: {e}") from None
    ends = args.interval.split(",")
    if len(ends) != 2 or not all(ends):
        raise SchemaError("--interval must be 'lo,hi'")
    lo, hi = ends
    theta_doc = {"type": "algebraic", "minpoly": coeffs, "interval": [lo, hi]}
    extra_doc = {"type": "decimal", "value": args.extra}
    return spectra.liouville_preset(theta_doc, extra_doc, args.xmax)


# ---------------------------------------------------------------------------
# plots

_SVG_W, _SVG_H, _SVG_M = 640, 480, 56


def _svg_document(col_points: list[tuple[float, float]], x_label: str,
                  y_label: str, title: str) -> str:
    xs = [p[0] for p in col_points]
    ys = [p[1] for p in col_points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def px(x):
        return _SVG_M + (x - x0) / (x1 - x0) * (_SVG_W - 2 * _SVG_M)

    def py(y):
        return _SVG_H - _SVG_M - (y - y0) / (y1 - y0) * (_SVG_H - 2 * _SVG_M)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in col_points)
    ticks = []
    for j in range(5):
        tx = x0 + (x1 - x0) * j / 4
        ty = y0 + (y1 - y0) * j / 4
        ticks.append(f'<line x1="{px(tx):.2f}" y1="{_SVG_H - _SVG_M}" '
                     f'x2="{px(tx):.2f}" y2="{_SVG_H - _SVG_M + 4}" stroke="black"/>')
        ticks.append(f'<text x="{px(tx):.2f}" y="{_SVG_H - _SVG_M + 18}" '
                     f'font-size="10" text-anchor="middle">{tx:.3g}</text>')
        ticks.append(f'<line x1="{_SVG_M - 4}" y1="{py(ty):.2f}" '
                     f'x2="{_SVG_M}" y2="{py(ty):.2f}" stroke="black"/>')
        ticks.append(f'<text x="{_SVG_M - 8}" y="{py(ty) + 3:.2f}" '
                     f'font-size="10" text-anchor="end">{ty:.3g}</text>')
    tick_txt = "\n  ".join(ticks)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">
  <rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>
  <text x="{_SVG_W / 2}" y="20" font-size="13" text-anchor="middle">{title}</text>
  <line x1="{_SVG_M}" y1="{_SVG_H - _SVG_M}" x2="{_SVG_W - _SVG_M}" y2="{_SVG_H - _SVG_M}" stroke="black"/>
  <line x1="{_SVG_M}" y1="{_SVG_M}" x2="{_SVG_M}" y2="{_SVG_H - _SVG_M}" stroke="black"/>
  <text x="{_SVG_W / 2}" y="{_SVG_H - 12}" font-size="11" text-anchor="middle">{x_label}</text>
  <text x="14" y="{_SVG_H / 2}" font-size="11" text-anchor="middle" transform="rotate(-90 14 {_SVG_H / 2})">{y_label}</text>
  {tick_txt}
  <polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
</svg>
"""


def _cmd_plot(args, seq):
    if args.what == "envelope":
        pts = []
        ents = seq.entries
        for i, e in enumerate(ents):
            lx = math.log10(max(1.0, midpoint_float(rig_interval(e.x_value))))
            ly = -math.log10(midpoint_float(rig_interval(e.l_value)))
            pts.append((lx, ly))
            nxt = (math.log10(midpoint_float(rig_interval(ents[i + 1].x_value)))
                   if i + 1 < len(ents) else math.log10(float(seq.x_max)))
            pts.append((nxt, ly))
        doc = _svg_document(pts, "log10 X", "-log10 L(X)",
                            "irrationality-measure staircase")
        name = "envelope.svg"
    else:
        n = seq.target.n
        if n < 2:
            raise DomainError("the frontier plot needs a target with n >= 2")
        pts = [(float(lh), float(lam))
               for lh, lam in spectra.frontier_rows(n, 201)
               if not (isinstance(lam, float) and math.isinf(lam))
               and float(lam) <= 10]
        doc = _svg_document(pts, "uniform exponent", "ordinary exponent",
                            f"admissible exponent boundary, n={n}")
        name = "frontier.svg"
    return name, doc, f"wrote {os.path.join(args.run, name)}"


# ---------------------------------------------------------------------------
# parser and dispatch

_RUN = ("--run", {"required": True, "help": "run directory made by enumerate"})
_OUT = ("--out", {"default": None})
_N = ("--n", {"type": int, "required": True})


def _rationals(*names):
    return [(name, {"type": _rational, "required": True}) for name in names]


# The subcommands in --help order: name -> (handler, summary, flags).  A flag
# is its name and add_argument keywords, and a list of flags is a required
# choice of one of them.  A handler of (args, seq) reads the run that --run
# names.
_SUBCOMMANDS = {
    "enumerate": (_cmd_enumerate, "enumerate minimal points into a run directory", [
        [("--config", {"help": "target configuration JSON file"}),
         ("--preset", {"choices": presets.preset_names(), "help": "named built-in target"})],
        ("--xmax", {"type": _rational, "required": True, "help": "norm bound (rational)"}),
        ("--out", {"dest": "run_dir", "required": True, "help": "run directory to create"})]),
    "exponents": (_cmd_exponents, "estimate the exponent pair from a run", [
        _RUN, ("--tail", {"type": _rational, "default": "1/2",
                          "help": "tail fraction of entries used"})]),
    "construct": (_cmd_construct, "build and verify the subspace family at i0", [
        _RUN, ("--i0", {"type": int, "required": True})]),
    "transfer": (_cmd_transfer, "check a sandwich profile against a run", [
        _RUN, *_rationals("--alpha", "--beta"),
        ("--a", {"type": _rational, "help": "upper constant (fitted if omitted)"}),
        ("--b", {"type": _rational, "help": "lower constant (fitted if omitted)"}),
        ("--grid", {"type": int, "default": 64})]),
    "extremal": (_cmd_extremal, "structural conditions on the run's points", [
        _RUN, *_rationals("--alpha", "--beta", "--eps", "--C")]),
    "verify": (_cmd_verify, "re-certify a run's minimal points up to its xMax", [_RUN]),
    "frontier": (_cmd_frontier, "boundary curve CSV of the exponent spectrum", [
        _N, ("--grid", {"type": int, "default": 101}), _OUT]),
    "lambda-n": (_cmd_lambda_n, "spectrum corner value (CSV table with --out)", [_N, _OUT]),
    "schmidt-fuzz": (_cmd_schmidt_fuzz, "randomized height-inequality stress report", [
        ("--dim", {"type": int, "default": 5, "help": "max ambient dimension"}),
        ("--count", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 1}), _OUT]),
    "liouville": (_cmd_liouville, "algebraic-plus-one preset report", [
        ("--minpoly", {"required": True,
                       "help": "comma-separated integer coefficients, low degree first"}),
        ("--interval", {"required": True, "help": "root bracket 'lo,hi'"}),
        ("--extra", {"required": True, "help": "decimal literal extra coordinate"}),
        *_rationals("--xmax"), _OUT]),
    "plot": (_cmd_plot, "SVG staircase or spectrum boundary for a run", [
        _RUN, ("--what", {"choices": ("envelope", "frontier"), "required": True})]),
}


def _build_parser(names=_SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parser of the subcommands `names`, by default all of them."""
    p = argparse.ArgumentParser(
        prog="simra",
        description="minimal points, subspace heights, and exponent spectra "
                    "for simultaneous rational approximation")
    # the usage line lists every subcommand, also when fewer have a parser;
    # the full parser keeps argparse's default, under which its errors name
    # the argument "subcommand"
    every = "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = p.add_subparsers(dest="subcommand", required=True,
                           metavar=None if len(names) == len(_SUBCOMMANDS) else every)
    for name in names:
        func, summary, flags = _SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            if isinstance(flag, list):
                group = sp.add_mutually_exclusive_group(required=True)
                for f, kw in flag:
                    group.add_argument(f, **kw)
            else:
                sp.add_argument(flag[0], **flag[1])
        sp.set_defaults(func=func)
    return p


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed by the parser of its first word's subcommand alone, or by
    the full parser when that word names none.

    The parser's objects form reference cycles.  Built with the collector
    paused, they all stay young, so one young collection frees them before
    the command's peak memory; an automatic pass while building would move
    some to the oldest generation, which only a full collection scans."""
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_parser(names).parse_args(argv)
    finally:
        gc.collect(1)
        if enabled:
            gc.enable()


def _serialized(output) -> str:
    return output if isinstance(output, str) else json_canonical(_fixed(output))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if "run" in vars(args):
            seq, manifest = _load_run(args.run)
            name, report, line = args.func(args, seq)
            manifest.setdefault("files", {})[name] = _write_text(
                os.path.join(args.run, name), _serialized(report))
            _write_text(os.path.join(args.run, MANIFEST), json_canonical(manifest))
            sys.stdout.write(line + "\n")
            return 0
        text = _serialized(args.func(args))
        if getattr(args, "out", None):
            _write_text(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    except (SimraError, OSError) as e:
        sys.stdout.write(json_canonical(
            {"error": {"type": type(e).__name__, "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

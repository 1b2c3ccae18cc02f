"""Command-line surface: persistent runs, reports, tables, and plots.

A run is a directory made by `enumerate`: the minimal-point CSV plus a
manifest recording the target configuration, the range, and a content hash
of every artifact.  Downstream subcommands take --run, check the stored CSV
against its recorded hash, read the sequence back from it (nothing is
re-enumerated), and add their own artifacts to the manifest.  `verify`
re-certifies a run's sequence from scratch.

All decimal output is fixed at 15 significant digits and dictionary keys are
sorted, so identical flags give byte-identical files.  Module errors exit
nonzero after printing a one-object error JSON to stdout.

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

from . import (construction, minpoints, model, presets, reporting, rigorous,
               spectra, subspaces, transference)
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


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return "sha256:" + sha256_hex(text.encode("utf-8"))


def _manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, MANIFEST)


def _read_manifest(run_dir: str) -> dict:
    path = _manifest_path(run_dir)
    if not os.path.exists(path):
        raise DomainError(f"{run_dir} has no {MANIFEST}; not a run directory")
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"unreadable manifest: {e}") from None


def _update_manifest(run_dir: str, manifest: dict, name: str, digest: str) -> None:
    manifest.setdefault("files", {})[name] = digest
    _write_text(_manifest_path(run_dir), json_canonical(manifest))


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# enumerate and run loading

def _config_doc(args) -> dict:
    if getattr(args, "preset", None):
        return presets.preset_config(args.preset)
    with open(args.config, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"configuration is not valid JSON: {e}") from None


def _cmd_enumerate(args) -> int:
    cap = rigorous.precision_cap()
    doc = _config_doc(args)
    target, approx = model.load_target(doc)
    x_max = Fraction(args.xmax)
    seq = minpoints.enumerate_minimal_points(target, approx, x_max)
    os.makedirs(args.out, exist_ok=True)
    buf = io.StringIO()
    minpoints.write_csv(seq, buf)
    digest = _write_text(os.path.join(args.out, POINTS_CSV), buf.getvalue())
    manifest = {
        "tool": "simra",
        "command": "enumerate",
        "config": doc,
        "xMax": str(x_max),
        "cap": cap,
        "entries": len(seq.entries),
        "files": {POINTS_CSV: digest},
    }
    _write_text(_manifest_path(args.out), json_canonical(manifest))
    sys.stdout.write(f"{len(seq.entries)} minimal points -> "
                     f"{os.path.join(args.out, POINTS_CSV)}\n")
    return 0


def _load_run(run_dir: str):
    """(sequence, manifest) of a run directory, read from its CSV.

    The CSV must match the sha256 the manifest records for it, pass the row
    checks of `minpoints.read_csv`, and hold the manifest's number of
    entries.  The enumeration is not repeated; `simra verify --run`
    re-certifies the sequence.
    """
    manifest = _read_manifest(run_dir)
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
    seq = minpoints.read_csv(target, approx, Fraction(manifest["xMax"]), text)
    if len(seq.entries) != manifest["entries"]:
        raise SchemaError(f"{csv_path} has {len(seq.entries)} rows, the manifest "
                          f"records {manifest['entries']} entries")
    return seq, manifest


def _cmd_verify(args) -> int:
    seq, manifest = _load_run(args.run)
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
    name = "verify.json"
    digest = _write_text(os.path.join(args.run, name), json_canonical(report))
    _update_manifest(args.run, manifest, name, digest)
    sys.stdout.write(f"{len(seq.entries)} minimal points certified up to "
                     f"X = {seq.x_max}\n")
    return 0


# ---------------------------------------------------------------------------
# analysis subcommands on runs

def _cmd_exponents(args) -> int:
    seq, manifest = _load_run(args.run)
    est = transference.estimate_exponents(seq, Fraction(args.tail))
    report = _fixed({
        "lambdaEst": est.lambda_est,
        "lambdaHatEst": est.lambda_hat_est,
        "lambdaEnclosure": list(est.lambda_enclosure),
        "lambdaHatEnclosure": list(est.lambda_hat_enclosure),
        "windowStart": est.window_start,
        "windowSize": est.window_size,
        "ordinarySeries": est.ordinary_series,
        "uniformSeries": est.uniform_series,
        "tailFraction": str(Fraction(args.tail)),
    })
    name = "exponents.json"
    digest = _write_text(os.path.join(args.run, name), json_canonical(report))
    _update_manifest(args.run, manifest, name, digest)
    sys.stdout.write(f"lambda_est {report['lambdaEst']}  "
                     f"lambda_hat_est {report['lambdaHatEst']}\n")
    return 0


def _cmd_construct(args) -> int:
    seq, manifest = _load_run(args.run)
    indices = construction.select_indices(seq, args.i0)
    fam = construction.build_subspace_family(seq, indices)
    report = construction.family_report(fam, seq)
    name = f"family_i0_{args.i0}.json"
    digest = _write_text(os.path.join(args.run, name), json_canonical(_fixed(report)))
    _update_manifest(args.run, manifest, name, digest)
    ok = report["identities"]["allPass"]
    sys.stdout.write(f"family at i0={args.i0}: indices {indices}, "
                     f"identities {'pass' if ok else 'FAIL'}\n")
    return 0


def _fit_power(x: Fraction, e: Fraction, constant: str) -> Fraction:
    """x^e for the fit of `constant`, in floats; DomainError past their range."""
    try:
        return Fraction(float(x) ** float(e)).limit_denominator(10 ** 9)
    except OverflowError:
        exponent = {"a": "alpha", "b": "beta"}[constant]
        raise DomainError(
            f"cannot fit the constant {constant}: X^{exponent} exceeds the double "
            f"range at X = {float(x):.6g}; pass --{constant}") from None


def _fit_profile(seq, n: int, alpha: Fraction, beta: Fraction,
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
    profile = transference.TransferenceProfile(n, a, b, alpha, beta)
    return profile, fitted


def _cmd_transfer(args) -> int:
    seq, manifest = _load_run(args.run)
    n = seq.target.n
    alpha, beta = Fraction(args.alpha), Fraction(args.beta)
    a = Fraction(args.a) if args.a is not None else None
    b = Fraction(args.b) if args.b is not None else None
    profile, fitted = _fit_profile(seq, n, alpha, beta, a, b)
    report = transference.check_sandwich(seq, profile, grid_count=args.grid)
    report["constantsFitted"] = fitted
    name = "transfer.json"
    digest = _write_text(os.path.join(args.run, name),
                         json_canonical(_fixed(report)))
    _update_manifest(args.run, manifest, name, digest)
    sys.stdout.write(f"sandwich holds on every envelope step up to X = {seq.x_max}; "
                     f"empirical floor of the top product "
                     f"{format_significant(report['empiricalC'])}\n")
    return 0


def _cmd_extremal(args) -> int:
    seq, manifest = _load_run(args.run)
    pts = [e.point.coords for e in seq.entries]
    report = transference.verify_extremal_sequence(
        pts, seq, Fraction(args.alpha), Fraction(args.beta), Fraction(args.eps),
        Fraction(args.C))
    name = "extremal.json"
    digest = _write_text(os.path.join(args.run, name),
                         json_canonical(_fixed(report)))
    _update_manifest(args.run, manifest, name, digest)
    sys.stdout.write(f"conditions {'all pass' if report['allPass'] else 'FAIL'} "
                     f"(threshold ok: {report['thresholdOK']})\n")
    return 0


# ---------------------------------------------------------------------------
# standalone tables and reports

def _cmd_frontier(args) -> int:
    buf = io.StringIO()
    spectra.write_frontier_csv(buf, args.n, args.grid)
    _emit(args, buf.getvalue())
    return 0


def _cmd_lambda_n(args) -> int:
    if args.out:
        buf = io.StringIO()
        spectra.write_lambda_csv(buf, args.n)
        _emit(args, buf.getvalue())
    else:
        val = spectra.lambda_n(args.n)
        sys.stdout.write(format_significant(float(val)) + "\n")
    return 0


def _cmd_schmidt_fuzz(args) -> int:
    report = subspaces.schmidt_fuzz(args.dim, args.count, args.seed)
    _emit(args, json_canonical(_fixed(report)))
    return 0


def _cmd_liouville(args) -> int:
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
    report = spectra.liouville_preset(theta_doc, extra_doc, Fraction(args.xmax))
    _emit(args, json_canonical(_fixed(report)))
    return 0


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


def _cmd_plot(args) -> int:
    seq, manifest = _load_run(args.run)
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
    digest = _write_text(os.path.join(args.run, name), doc)
    _update_manifest(args.run, manifest, name, digest)
    sys.stdout.write(f"wrote {os.path.join(args.run, name)}\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simra",
        description="minimal points, subspace heights, and exponent spectra "
                    "for simultaneous rational approximation")
    sub = p.add_subparsers(dest="subcommand", required=True)

    e = sub.add_parser("enumerate", help="enumerate minimal points into a run directory")
    g = e.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="target configuration JSON file")
    g.add_argument("--preset", choices=presets.preset_names(),
                   help="named built-in target")
    e.add_argument("--xmax", required=True, help="norm bound (rational)")
    e.add_argument("--out", required=True, help="run directory to create")
    e.set_defaults(func=_cmd_enumerate)

    x = sub.add_parser("exponents", help="estimate the exponent pair from a run")
    x.add_argument("--run", required=True)
    x.add_argument("--tail", default="1/2", help="tail fraction of entries used")
    x.set_defaults(func=_cmd_exponents)

    c = sub.add_parser("construct", help="build and verify the subspace family at i0")
    c.add_argument("--run", required=True)
    c.add_argument("--i0", type=int, required=True)
    c.set_defaults(func=_cmd_construct)

    t = sub.add_parser("transfer", help="check a sandwich profile against a run")
    t.add_argument("--run", required=True)
    t.add_argument("--alpha", required=True)
    t.add_argument("--beta", required=True)
    t.add_argument("--a", default=None, help="upper constant (fitted if omitted)")
    t.add_argument("--b", default=None, help="lower constant (fitted if omitted)")
    t.add_argument("--grid", type=int, default=64)
    t.set_defaults(func=_cmd_transfer)

    ex = sub.add_parser("extremal", help="structural conditions on the run's points")
    ex.add_argument("--run", required=True)
    ex.add_argument("--alpha", required=True)
    ex.add_argument("--beta", required=True)
    ex.add_argument("--eps", required=True)
    ex.add_argument("--C", required=True)
    ex.set_defaults(func=_cmd_extremal)

    v = sub.add_parser("verify", help="re-certify a run's minimal points up to its xMax")
    v.add_argument("--run", required=True)
    v.set_defaults(func=_cmd_verify)

    fr = sub.add_parser("frontier", help="boundary curve CSV of the exponent spectrum")
    fr.add_argument("--n", type=int, required=True)
    fr.add_argument("--grid", type=int, default=101)
    fr.add_argument("--out", default=None)
    fr.set_defaults(func=_cmd_frontier)

    ln = sub.add_parser("lambda-n", help="spectrum corner value (CSV table with --out)")
    ln.add_argument("--n", type=int, required=True)
    ln.add_argument("--out", default=None)
    ln.set_defaults(func=_cmd_lambda_n)

    sf = sub.add_parser("schmidt-fuzz", help="randomized height-inequality stress report")
    sf.add_argument("--dim", type=int, default=5, help="max ambient dimension")
    sf.add_argument("--count", type=int, default=1000)
    sf.add_argument("--seed", type=int, default=1)
    sf.add_argument("--out", default=None)
    sf.set_defaults(func=_cmd_schmidt_fuzz)

    lv = sub.add_parser("liouville", help="algebraic-plus-one preset report")
    lv.add_argument("--minpoly", required=True,
                    help="comma-separated integer coefficients, low degree first")
    lv.add_argument("--interval", required=True, help="root bracket 'lo,hi'")
    lv.add_argument("--extra", required=True, help="decimal literal extra coordinate")
    lv.add_argument("--xmax", required=True)
    lv.add_argument("--out", default=None)
    lv.set_defaults(func=_cmd_liouville)

    pl = sub.add_parser("plot", help="SVG staircase or spectrum boundary for a run")
    pl.add_argument("--run", required=True)
    pl.add_argument("--what", choices=("envelope", "frontier"), required=True)
    pl.set_defaults(func=_cmd_plot)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the parser is about 470 objects in reference cycles: collect them now,
    # not at the collector's next pass, which may fall under the command's
    # peak memory
    gc.collect(1)
    try:
        return args.func(args)
    except (SimraError, OSError, ValueError, ZeroDivisionError) as e:
        sys.stdout.write(json_canonical(
            {"error": {"type": type(e).__name__, "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
